#include "gpusim/scheduler.h"

#include "util/logging.h"

namespace gknn::gpusim {

Scheduler::Scheduler(DeviceSet* devices, SchedulerOptions options)
    : devices_(devices), options_(options), states_(devices->size()) {
  GKNN_CHECK(devices_ != nullptr);
  if (options_.failure_threshold == 0) options_.failure_threshold = 1;
  if (options_.probe_interval == 0) options_.probe_interval = 1;
}

Scheduler::Lease Scheduler::Acquire() {
  return AcquireImpl(static_cast<uint32_t>(states_.size()));
}

Scheduler::Lease Scheduler::AcquireAvoiding(uint32_t avoid_device) {
  // With one device there is nowhere to migrate to; avoid nothing.
  if (states_.size() <= 1) avoid_device = static_cast<uint32_t>(states_.size());
  return AcquireImpl(avoid_device);
}

Scheduler::Lease Scheduler::AcquireImpl(uint32_t avoid_device) {
  util::lockdep::MutexLock lock(mu_);
  const uint32_t n = static_cast<uint32_t>(states_.size());
  ++acquires_;

  // Probe rotation: while some device is unhealthy, every Nth acquire
  // deliberately leases the least-loaded unhealthy device so a recovered
  // fault domain rejoins without an explicit revive.
  bool any_unhealthy = false;
  for (const DeviceState& s : states_) any_unhealthy |= s.unhealthy;
  const bool probe =
      any_unhealthy && (acquires_ % options_.probe_interval == 0);

  uint32_t best = n;  // invalid
  for (uint32_t i = 0; i < n; ++i) {
    const DeviceState& s = states_[i];
    if (i == avoid_device) continue;
    if (s.unhealthy != probe && any_unhealthy) {
      // Normal rounds skip unhealthy devices; probe rounds target them.
      // (With nothing unhealthy, every device is a candidate.)
      continue;
    }
    if (best == n) {
      best = i;
      continue;
    }
    const DeviceState& b = states_[best];
    if (s.outstanding != b.outstanding) {
      if (s.outstanding < b.outstanding) best = i;
      continue;
    }
    // Tie-break on the modeled clock: the device that has accumulated the
    // least busy time is the one whose timeline frees up first (online
    // LPT). Atomic read; no lock is taken under mu_ (a leaf).
    if (devices_->device(i).ClockSeconds() <
        devices_->device(best).ClockSeconds()) {
      best = i;
    }
  }
  // All devices filtered out (every one unhealthy on a non-probe round):
  // fall back to least-outstanding over the whole set — the caller's CPU
  // fallback handles a set that is truly down.
  if (best == n) {
    for (uint32_t i = 0; i < n; ++i) {
      if (i == avoid_device && n > 1) continue;
      if (best == n || states_[i].outstanding < states_[best].outstanding) {
        best = i;
      }
    }
  }

  DeviceState& chosen = states_[best];
  ++chosen.outstanding;
  ++chosen.leases;
  if (chosen.unhealthy) ++chosen.probes;
  return Lease(this, devices_->device_ptr(best), best);
}

void Scheduler::ReleaseSlot(uint32_t device_index) {
  util::lockdep::MutexLock lock(mu_);
  DeviceState& s = states_[device_index];
  GKNN_DCHECK(s.outstanding > 0);
  if (s.outstanding > 0) --s.outstanding;
}

void Scheduler::ReportResult(uint32_t device_index, bool device_error) {
  util::lockdep::MutexLock lock(mu_);
  DeviceState& s = states_[device_index];
  if (device_error) {
    ++s.device_errors;
    ++s.consecutive_errors;
    if (s.consecutive_errors >= options_.failure_threshold) {
      s.unhealthy = true;
    }
  } else {
    s.consecutive_errors = 0;
    s.unhealthy = false;
  }
}

DeviceSchedStats Scheduler::device_stats(uint32_t device_index) const {
  util::lockdep::MutexLock lock(mu_);
  const DeviceState& s = states_[device_index];
  DeviceSchedStats out;
  out.leases = s.leases;
  out.probes = s.probes;
  out.device_errors = s.device_errors;
  out.outstanding = s.outstanding;
  out.unhealthy = s.unhealthy;
  return out;
}

uint32_t Scheduler::total_outstanding() const {
  util::lockdep::MutexLock lock(mu_);
  uint32_t total = 0;
  for (const DeviceState& s : states_) total += s.outstanding;
  return total;
}

}  // namespace gknn::gpusim
