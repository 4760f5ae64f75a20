#include "server/admission_gate.h"

#include <string>

#include "util/timer.h"

namespace gknn::server {

AdmissionGate::Admission AdmissionGate::Admit(
    const util::Deadline& deadline) {
  Admission out;
  if (max_inflight_ == 0) {
    // Admission control off: no queue, no shedding; keep the inflight
    // gauge honest anyway.
    util::lockdep::MutexLock lock(mu_);
    ++inflight_;
    out.slot.reset(this);
    return out;
  }
  util::Timer wait_timer;
  bool waited = false;
  util::lockdep::UniqueLock lock(mu_);
  while (inflight_ >= max_inflight_) {
    if (!waited) {
      if (queued_ >= max_queued_) {
        out.status = util::Status::ResourceExhausted(
            "admission queue full (" + std::to_string(queued_) +
            " waiting, " + std::to_string(inflight_) + " inflight)");
        return out;
      }
      ++queued_;
      waited = true;
    }
    if (deadline.is_infinite()) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, deadline.time_point());
      if (inflight_ >= max_inflight_ && deadline.Expired()) {
        --queued_;
        out.status = util::Status::DeadlineExceeded(
            "deadline expired waiting for an execution slot");
        return out;
      }
    }
  }
  if (waited) --queued_;
  ++inflight_;
  out.brownout = brownout_ && (waited || inflight_ * 2 > max_inflight_);
  out.waited_seconds = waited ? wait_timer.ElapsedSeconds() : 0.0;
  out.slot.reset(this);
  return out;
}

void AdmissionGate::Release() {
  {
    util::lockdep::MutexLock lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

uint32_t AdmissionGate::inflight() const {
  util::lockdep::MutexLock lock(mu_);
  return inflight_;
}

uint32_t AdmissionGate::queued() const {
  util::lockdep::MutexLock lock(mu_);
  return queued_;
}

}  // namespace gknn::server
