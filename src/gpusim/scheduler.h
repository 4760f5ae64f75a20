#ifndef GKNN_GPUSIM_SCHEDULER_H_
#define GKNN_GPUSIM_SCHEDULER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gpusim/device_set.h"
#include "util/lockdep.h"

namespace gknn::gpusim {

/// Placement policy knobs (docs/GPU_SIMULATION.md "Multi-device").
struct SchedulerOptions {
  /// Consecutive device errors that mark a device unhealthy; the
  /// scheduler then routes around it (its fault domain is considered
  /// down) until a probe succeeds.
  uint32_t failure_threshold = 2;
  /// While any device is unhealthy, every Nth Acquire leases it anyway as
  /// a probe — a recovered device (cleared fault spec) rejoins the rotation
  /// without an explicit revive call.
  uint32_t probe_interval = 8;
};

/// Per-device placement counters (snapshot via Scheduler::device_stats).
struct DeviceSchedStats {
  uint64_t leases = 0;          // Acquire decisions that picked this device
  uint64_t probes = 0;          // leases granted while unhealthy (probes)
  uint64_t device_errors = 0;   // failures reported against this device
  uint32_t outstanding = 0;     // leases currently live
  bool unhealthy = false;       // routed around until a probe succeeds
};

/// The multi-stream scheduler: places phase work (cleaning batches and
/// query GPU pipelines) onto the devices of a DeviceSet.
///
/// One Acquire = one lease = one stream's worth of work on the chosen
/// device. The policy is least-outstanding-first with the modeled device
/// clock as the tie-break — the LPT intuition the old modeled gate used,
/// but applied online to real work: the busiest device (most live leases,
/// then most accumulated modeled seconds) is avoided, so concurrent
/// queries spread across the set and the per-device clocks advance evenly.
/// Results do not depend on placement (every device computes bit-exact
/// host-functional kernels), which is what test_scheduler_differential
/// proves; placement only shapes the modeled timelines.
///
/// Health tracking mirrors QueryServer's circuit breaker one level down:
/// failure_threshold consecutive device errors (reported by the caller via
/// ReportResult) take a device out of rotation; every probe_interval-th
/// Acquire leases an unhealthy device as a probe, and one success restores
/// it. With every device unhealthy Acquire still returns a lease (the
/// caller's own CPU fallback is the last line of defense, not the
/// scheduler's).
///
/// Thread-safety: all methods may race freely. Internal state is guarded
/// by a leaf mutex (gpusim.scheduler, rank 903 — see docs/CONCURRENCY.md);
/// nothing else is ever acquired under it.
class Scheduler {
 public:
  explicit Scheduler(DeviceSet* devices, SchedulerOptions options = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// RAII grant of one stream slot on one device. Move-only; releases its
  /// slot on destruction. A default-constructed lease is empty (no
  /// device) — callers only see those after moving from a lease.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      Release();
      scheduler_ = other.scheduler_;
      device_ = other.device_;
      device_index_ = other.device_index_;
      other.scheduler_ = nullptr;
      other.device_ = nullptr;
      return *this;
    }
    ~Lease() { Release(); }

    Device* device() const { return device_; }
    uint32_t device_index() const { return device_index_; }

   private:
    friend class Scheduler;
    Lease(Scheduler* scheduler, Device* device, uint32_t device_index)
        : scheduler_(scheduler),
          device_(device),
          device_index_(device_index) {}

    void Release() {
      if (scheduler_ != nullptr) scheduler_->ReleaseSlot(device_index_);
      scheduler_ = nullptr;
      device_ = nullptr;
    }

    Scheduler* scheduler_ = nullptr;
    Device* device_ = nullptr;
    uint32_t device_index_ = 0;
  };

  /// Picks a device for one stream's worth of work. Never blocks.
  Lease Acquire();

  /// Acquire for a migration retry: same policy, but `avoid_device` (the
  /// device a first attempt just failed on) is excluded from selection
  /// whenever the set holds more than one device. With a single device
  /// this degenerates to Acquire.
  Lease AcquireAvoiding(uint32_t avoid_device);

  /// Reports the outcome of work run under a lease on `device_index`:
  /// device errors feed the health tracking, successes reset it. Callers
  /// report at most once per lease (the engine reports each GPU attempt).
  void ReportResult(uint32_t device_index, bool device_error);

  uint32_t num_devices() const { return devices_->size(); }
  DeviceSet& devices() { return *devices_; }
  const SchedulerOptions& options() const { return options_; }

  DeviceSchedStats device_stats(uint32_t device_index) const;

  /// Live leases across every device (0 when quiesced).
  uint32_t total_outstanding() const;

 private:
  friend class Lease;

  /// Shared selection body; `avoid_device` >= size() means no exclusion.
  Lease AcquireImpl(uint32_t avoid_device);

  void ReleaseSlot(uint32_t device_index);

  struct DeviceState {
    uint32_t outstanding = 0;
    uint64_t leases = 0;
    uint64_t probes = 0;
    uint64_t device_errors = 0;
    uint32_t consecutive_errors = 0;
    bool unhealthy = false;
  };

  DeviceSet* devices_;
  SchedulerOptions options_;

  /// Leaf (rank 903): selection reads only this state plus the devices'
  /// atomic clocks — never another tracked lock.
  mutable util::lockdep::Mutex mu_{util::lockdep::kGpusimSchedulerClass};
  std::vector<DeviceState> states_;  // guarded by mu_
  uint64_t acquires_ = 0;            // guarded by mu_
};

}  // namespace gknn::gpusim

#endif  // GKNN_GPUSIM_SCHEDULER_H_
