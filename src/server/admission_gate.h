#ifndef GKNN_SERVER_ADMISSION_GATE_H_
#define GKNN_SERVER_ADMISSION_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/types.h"
#include "roadnet/graph.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace gknn::server {

/// The execution-slot gate of overload control (docs/ROBUSTNESS.md
/// "Overload control"), shared by QueryServer and ShardRouter: at most
/// `max_inflight` queries hold a slot, at most `max_queued` more wait for
/// one, and an arrival beyond that is shed — reject-newest, so everyone
/// already waiting keeps its place. A wait is bounded by the query's
/// deadline. With max_inflight == 0 the gate admits everything and only
/// counts the slots held.
///
/// The counters live under one `server.admission` leaf lock (rank 902);
/// the condvar wait releases it, so a blocked admitter holds nothing.
class AdmissionGate {
 public:
  AdmissionGate(uint32_t max_inflight, uint32_t max_queued, bool brownout)
      : max_inflight_(max_inflight),
        max_queued_(max_queued),
        brownout_(brownout) {}

  struct ReleaseSlot {
    void operator()(AdmissionGate* gate) const { gate->Release(); }
  };
  /// A held execution slot; destroying it returns the slot to the gate.
  using Slot = std::unique_ptr<AdmissionGate, ReleaseSlot>;

  /// Outcome of one admission decision.
  struct Admission {
    /// OK = slot granted; ResourceExhausted = shed (the waiting room was
    /// full); DeadlineExceeded = the budget ran out while waiting.
    util::Status status = util::Status::OK();
    /// Degrade this query: brownout is on and the query had to queue, or
    /// more than half the slots are busy — degrade before the queue fills
    /// and sheds.
    bool brownout = false;
    double waited_seconds = 0;  // time spent queued for the slot
    Slot slot;                  // held iff status.ok()
  };

  Admission Admit(const util::Deadline& deadline);

  /// Slots currently held.
  uint32_t inflight() const;
  /// Arrivals currently waiting for a slot.
  uint32_t queued() const;

 private:
  void Release();

  const uint32_t max_inflight_;
  const uint32_t max_queued_;
  const bool brownout_;
  mutable util::lockdep::Mutex mu_{util::lockdep::kServerAdmissionClass};
  std::condition_variable_any cv_;
  uint32_t inflight_ = 0;  // guarded by mu_
  uint32_t queued_ = 0;    // guarded by mu_
};

/// The batch path of QueryServer and ShardRouter: fans one full admitted
/// query per location, `query(location)`, over `pool` under one shared
/// `deadline`. A task whose budget dies while it waits in the pool queue
/// is dropped there and counted in `expired`; one the bounded queue
/// rejects is shed, typed, without blocking the submitter, and counted in
/// `shed`. results[i] answers locations[i]; the first error fails the
/// batch.
template <typename QueryFn>
util::Result<std::vector<std::vector<core::KnnResultEntry>>> RunBatch(
    util::ThreadPool* pool, std::span<const roadnet::EdgePoint> locations,
    const util::Deadline& deadline, QueryFn query,
    std::atomic<uint64_t>* expired, std::atomic<uint64_t>* shed) {
  std::vector<std::vector<core::KnnResultEntry>> results(locations.size());
  std::vector<util::Status> statuses(locations.size(), util::Status::OK());
  std::vector<std::future<void>> tasks;
  tasks.reserve(locations.size());
  for (size_t i = 0; i < locations.size(); ++i) {
    util::ThreadPool::Submission submission;
    submission.deadline = deadline;
    submission.run = [&results, &statuses, &query, location = locations[i],
                      i] {
      auto result = query(location);
      if (result.ok()) {
        results[i] = std::move(result).ValueOrDie();
      } else {
        statuses[i] = result.status();
      }
    };
    submission.on_expired = [&statuses, expired, i] {
      expired->fetch_add(1, std::memory_order_relaxed);
      statuses[i] = util::Status::DeadlineExceeded(
          "query budget exhausted in the batch queue");
    };
    std::optional<std::future<void>> task =
        pool->TrySubmitTask(std::move(submission));
    if (!task.has_value()) {
      shed->fetch_add(1, std::memory_order_relaxed);
      statuses[i] =
          util::Status::ResourceExhausted("batch query pool queue full");
      continue;
    }
    tasks.push_back(std::move(*task));
  }
  // get() (not wait()) so an exception escaping a task — impossible for
  // the query path itself, which reports through Status — still reaches
  // the caller instead of being swallowed.
  for (std::future<void>& task : tasks) task.get();
  for (util::Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return results;
}

}  // namespace gknn::server

#endif  // GKNN_SERVER_ADMISSION_GATE_H_
