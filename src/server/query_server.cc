#include "server/query_server.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "core/cost_model.h"
#include "gpusim/fault_injector.h"
#include "util/backoff.h"
#include "util/logging.h"

namespace gknn::server {

util::Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const roadnet::Graph* graph, const core::GGridOptions& options,
    gpusim::Device* device, const ServerOptions& server_options) {
  GKNN_ASSIGN_OR_RETURN(std::unique_ptr<core::GGridIndex> index,
                        core::GGridIndex::Build(graph, options, device));
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(index), server_options));
}

util::Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    const roadnet::Graph* graph, const core::GGridOptions& options,
    gpusim::DeviceSet* devices, const ServerOptions& server_options) {
  GKNN_ASSIGN_OR_RETURN(std::unique_ptr<core::GGridIndex> index,
                        core::GGridIndex::Build(graph, options, devices));
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(index), server_options));
}

util::Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    std::shared_ptr<const core::GraphGrid> grid,
    const core::GGridOptions& options, gpusim::DeviceSet* devices,
    const ServerOptions& server_options) {
  GKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<core::GGridIndex> index,
      core::GGridIndex::Build(std::move(grid), options, devices));
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(index), server_options));
}

void QueryServer::Report(core::ObjectId object, roadnet::EdgePoint position,
                         double time) {
  Inbox& inbox = InboxOf(object);
  util::lockdep::MutexLock lock(inbox.mutex);
  inbox.entries.push_back(Inbox::Entry{object, position, time, false});
}

void QueryServer::Deregister(core::ObjectId object, double time) {
  Inbox& inbox = InboxOf(object);
  util::lockdep::MutexLock lock(inbox.mutex);
  inbox.entries.push_back(Inbox::Entry{object, {}, time, true});
}

util::Status QueryServer::DrainExclusive() {
  util::Status first_error = util::Status::OK();
  for (Inbox& inbox : inboxes_) {
    std::vector<Inbox::Entry> batch;
    {
      util::lockdep::MutexLock lock(inbox.mutex);
      batch.swap(inbox.entries);
    }
    for (const Inbox::Entry& e : batch) {
      const util::Status applied =
          e.remove ? index_->Remove(e.object, e.time)
                   : index_->Ingest(e.object, e.position, e.time);
      if (applied.ok()) continue;
      // Ingest and Remove fail only on a position off the network: under
      // eager_updates a device error in their clean falls back to the
      // host pass, which cannot fail. So every error is a bad update.
      GKNN_DCHECK(!gpusim::IsDeviceError(applied));
      // Drop the poison entry and keep draining — one bad producer must
      // not wedge the whole inbox. The first such error is reported to
      // the caller.
      GKNN_LOG(Warning) << "dropping bad update for object " << e.object
                        << ": " << applied.ToString();
      if (first_error.ok()) first_error = applied;
    }
  }
  return first_error;
}

util::Status QueryServer::TimedDrainExclusive() {
  if (!obs::kEnabled) return DrainExclusive();
  const obs::Clock& clock = index_->tracer().clock();
  const double start = clock.NowSeconds();
  util::Status status = DrainExclusive();
  index_->metrics()
      .GetHistogram("gknn_server_drain_seconds")
      ->Observe(clock.NowSeconds() - start);
  return status;
}

util::Status QueryServer::DrainIfPending() {
  if (pending_updates() == 0) return util::Status::OK();
  util::lockdep::ExclusiveLock lock(index_mutex_);
  return TimedDrainExclusive();
}

double QueryServer::PredictDeviceSeconds(uint32_t k) const {
  const core::GGridOptions& opts = index_->options();
  const roadnet::Graph& graph = index_->grid().graph();
  core::CostModelInputs inputs;
  inputs.k = k;
  inputs.rho = opts.rho;
  inputs.delta_b = opts.delta_b;
  inputs.delta_c = opts.delta_c;
  inputs.delta_v = opts.delta_v;
  inputs.eta = opts.eta;
  inputs.num_vertices = graph.num_vertices();
  inputs.num_edges = graph.num_edges();
  inputs.num_objects = index_->object_table().size();
  return core::PredictCosts(inputs, index_->device().config())
      .total_gpu_seconds;
}

template <typename IndexFn>
util::Result<std::vector<core::KnnResultEntry>> QueryServer::ExecuteAdmitted(
    const util::Deadline& deadline, double predicted_gpu_seconds,
    IndexFn index_fn, bool external_brownout) {
  // admission.slot is held to the end of the query, error paths included.
  AdmissionGate::Admission admission = gate_.Admit(deadline);
  if (!admission.status.ok()) {
    if (admission.status.IsDeadlineExceeded()) {
      ++stats_.expired_queries;
    } else {
      ++stats_.shed_queries;
    }
    return admission.status;
  }
  ++stats_.admitted_queries;
  if (admission_wait_hist_ != nullptr) {
    admission_wait_hist_->Observe(admission.waited_seconds);
  }

  core::QueryControl control;
  control.deadline = deadline;
  bool force_cpu = false;
  if (admission.brownout || external_brownout) {
    ++stats_.brownout_queries;
    if (predicted_gpu_seconds > 0 &&
        predicted_gpu_seconds < options_.brownout_cheap_gpu_seconds) {
      // Cheap query: the ~100 µs device round-trip dominates it; under
      // pressure answer from the host and leave the device to the
      // expensive queries.
      force_cpu = true;
    } else {
      control.rho_scale = options_.brownout_rho_scale;
    }
  }

  auto finish = [&](util::Result<std::vector<core::KnnResultEntry>> result) {
    if (!deadline.is_infinite() && deadline_slack_hist_ != nullptr) {
      deadline_slack_hist_->Observe(std::max(0.0, deadline.RemainingSeconds()));
    }
    if (!result.ok() && result.status().IsDeadlineExceeded()) {
      ++stats_.expired_queries;
    }
    return result;
  };

  util::Status drained = DrainIfPending();
  if (!drained.ok()) return finish(std::move(drained));
  // gknn-check: allow(shared-block): the reader lock is the query protocol —
  // kernels, transfers, and retry backoff run under it by design so queries
  // never block each other; writers drain via DrainIfPending first. See
  // docs/CONCURRENCY.md "reader-writer query protocol".
  util::lockdep::SharedLock lock(index_mutex_);
  core::KnnStats stats;
  uint64_t query_retries = 0;
  auto result = ExecuteShared(
      [&](core::ExecMode mode) { return index_fn(mode, &stats, &control); },
      &query_retries, deadline, force_cpu);
  AnnotateTrace(stats.query_id, query_retries);
  return finish(std::move(result));
}

template <typename RunFn>
util::Result<std::vector<core::KnnResultEntry>> QueryServer::ExecuteShared(
    RunFn run, uint64_t* query_retries, const util::Deadline& deadline,
    bool force_cpu) {
  using core::ExecMode;
  // Brownout routing decided at admission: a cheap degraded query goes
  // straight to the exact CPU path, skipping the retry/breaker machinery
  // (there is nothing to retry — no device work is attempted).
  if (force_cpu) return run(ExecMode::kCpuOnly);
  // Degraded path. The decision (count the query, pace the probe) happens
  // under breaker_mu_; the query itself runs without it so concurrent
  // readers only serialize for a counter update.
  bool degraded_now = false;
  bool probe_due = false;
  {
    util::lockdep::MutexLock lock(breaker_mu_);
    if (stats_.degraded.load(std::memory_order_relaxed)) {
      degraded_now = true;
      ++stats_.degraded_queries;
      ++degraded_query_count_;
      probe_due = options_.probe_interval > 0 &&
                  degraded_query_count_ % options_.probe_interval == 0;
    }
  }
  if (degraded_now) {
    if (probe_due) {
      // Half-open probe: try the GPU once; success closes the breaker and
      // this probe's answer is the query's answer.
      auto probe = run(ExecMode::kGpuOnly);
      if (probe.ok()) {
        util::lockdep::MutexLock lock(breaker_mu_);
        // Another probe may have closed the breaker while ours ran.
        if (stats_.degraded.load(std::memory_order_relaxed)) {
          breaker_seq_.fetch_add(1, std::memory_order_release);
          stats_.degraded.store(false, std::memory_order_relaxed);
          stats_.breaker_closes.fetch_add(1, std::memory_order_relaxed);
          breaker_seq_.fetch_add(1, std::memory_order_release);
          consecutive_query_failures_ = 0;
          GKNN_LOG(Info) << "device recovered: circuit breaker closed";
        }
        return probe;
      }
      if (!gpusim::IsDeviceError(probe.status())) return probe;
      ++stats_.gpu_failures;
    }
    ++stats_.fallback_queries;
    return run(ExecMode::kCpuOnly);
  }

  util::ExponentialBackoff backoff(options_.backoff_base_ms,
                                   options_.backoff_max_ms);
  const uint32_t attempts = std::max<uint32_t>(1, options_.gpu_attempts);
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // A budgeted query does not sleep its remaining budget away in
      // retry backoff: once the deadline is gone, stop retrying and
      // report it (typed, not a device error — no fallback follows).
      if (deadline.Expired()) {
        return util::Status::DeadlineExceeded(
            "query budget exhausted during retry backoff");
      }
      ++stats_.retries;
      if (query_retries != nullptr) ++*query_retries;
      backoff.SleepNext();
    }
    auto result = run(ExecMode::kGpuOnly);
    if (result.ok()) {
      util::lockdep::MutexLock lock(breaker_mu_);
      consecutive_query_failures_ = 0;
      return result;
    }
    if (!gpusim::IsDeviceError(result.status())) return result;
    ++stats_.gpu_failures;
  }
  {
    util::lockdep::MutexLock lock(breaker_mu_);
    if (++consecutive_query_failures_ >= options_.breaker_threshold &&
        !stats_.degraded.load(std::memory_order_relaxed)) {
      breaker_seq_.fetch_add(1, std::memory_order_release);
      stats_.degraded.store(true, std::memory_order_relaxed);
      stats_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
      breaker_seq_.fetch_add(1, std::memory_order_release);
      degraded_query_count_ = 0;
      GKNN_LOG(Warning) << "circuit breaker open after "
                        << consecutive_query_failures_
                        << " consecutive device failures; serving from CPU";
    }
  }
  ++stats_.fallback_queries;
  return run(ExecMode::kCpuOnly);
}

util::Result<std::vector<core::KnnResultEntry>> QueryServer::QueryKnn(
    roadnet::EdgePoint location, uint32_t k, double t_now) {
  return QueryKnnRouted(location, k, t_now, options_.DefaultDeadline(),
                        /*brownout_pressure=*/false);
}

util::Result<std::vector<core::KnnResultEntry>> QueryServer::QueryKnnRouted(
    roadnet::EdgePoint location, uint32_t k, double t_now,
    const util::Deadline& deadline, bool brownout_pressure) {
  const bool degrade = options_.brownout || brownout_pressure;
  return ExecuteAdmitted(
      deadline, degrade ? PredictDeviceSeconds(k) : 0.0,
      [&](core::ExecMode mode, core::KnnStats* stats,
          const core::QueryControl* control) {
        return index_->QueryKnn(location, k, t_now, stats, mode, control);
      },
      brownout_pressure);
}

util::Result<std::vector<core::KnnResultEntry>> QueryServer::QueryRangeRouted(
    roadnet::EdgePoint location, roadnet::Distance radius, double t_now,
    const util::Deadline& deadline, bool brownout_pressure) {
  return ExecuteAdmitted(
      deadline, 0.0,
      [&](core::ExecMode mode, core::KnnStats* stats,
          const core::QueryControl* control) {
        return index_->QueryRange(location, radius, t_now, stats, mode,
                                  control);
      },
      brownout_pressure);
}

util::Result<std::vector<core::KnnResultEntry>> QueryServer::QueryRange(
    roadnet::EdgePoint location, roadnet::Distance radius, double t_now) {
  // Range queries have no k for the cost model; brownout degrades them
  // through the ring scale only.
  return QueryRangeRouted(location, radius, t_now,
                          options_.DefaultDeadline(),
                          /*brownout_pressure=*/false);
}

util::Result<std::vector<std::vector<core::KnnResultEntry>>>
QueryServer::QueryKnnBatch(std::span<const roadnet::EdgePoint> locations,
                           uint32_t k, double t_now) {
  GKNN_RETURN_NOT_OK(DrainIfPending());
  const util::Deadline deadline = options_.DefaultDeadline();
  // Each task is a full admitted query: admission slot, budget, brownout —
  // batch queries obey the same overload policy as single ones.
  return RunBatch(
      query_pool_.get(), locations, deadline,
      [&](roadnet::EdgePoint location) {
        return QueryKnnRouted(location, k, t_now, deadline,
                              /*brownout_pressure=*/false);
      },
      &stats_.expired_queries, &stats_.shed_queries);
}

void QueryServer::AnnotateTrace(uint64_t query_id, uint64_t query_retries) {
  if (!obs::kEnabled) return;
  index_->tracer().Annotate(query_id, [&](obs::QueryTraceRecord& record) {
    record.retries = static_cast<uint32_t>(query_retries);
  });
}

void QueryServer::FoldServerMetricsExclusive() {
  if (!obs::kEnabled) return;
  index_->FoldDeviceMetrics();
  obs::MetricRegistry& registry = index_->metrics();
  const ServerStats snapshot = stats();
  auto set = [&](std::string_view name, double value) {
    registry.GetGauge(name)->Set(value);
  };
  set("gknn_server_gpu_failures", static_cast<double>(snapshot.gpu_failures));
  set("gknn_server_retries", static_cast<double>(snapshot.retries));
  set("gknn_server_fallback_queries",
      static_cast<double>(snapshot.fallback_queries));
  set("gknn_server_degraded_queries",
      static_cast<double>(snapshot.degraded_queries));
  set("gknn_server_breaker_trips",
      static_cast<double>(snapshot.breaker_trips));
  set("gknn_server_breaker_closes",
      static_cast<double>(snapshot.breaker_closes));
  set("gknn_server_degraded", snapshot.degraded ? 1.0 : 0.0);
  set("gknn_server_pending_updates",
      static_cast<double>(pending_updates()));
  // Overload control (docs/ROBUSTNESS.md "Overload control").
  set("gknn_server_admitted_queries",
      static_cast<double>(snapshot.admitted_queries));
  set("gknn_server_shed_queries", static_cast<double>(snapshot.shed_queries));
  set("gknn_server_expired_queries",
      static_cast<double>(snapshot.expired_queries));
  set("gknn_server_brownout_queries",
      static_cast<double>(snapshot.brownout_queries));
  set("gknn_server_inflight_queries",
      static_cast<double>(inflight_queries()));
  set("gknn_server_admission_queue_depth",
      static_cast<double>(admission_queue_depth()));
  set("gknn_server_pool_expired_tasks",
      static_cast<double>(query_pool_->expired_tasks()));
  // Lock-discipline violations (docs/LOCKDEP.md). The lockdep layer keeps
  // one process-global count; fold the delta so the registry counter stays
  // monotone across snapshots. Zero always, unless a bug slipped past the
  // rank table.
  const uint64_t violations = util::lockdep::ViolationCount();
  obs::Counter* violation_counter =
      registry.GetCounter("gknn_lockdep_violations_total");
  if (violations > folded_lockdep_violations_) {
    violation_counter->Add(violations - folded_lockdep_violations_);
  }
  folded_lockdep_violations_ = violations;
}

obs::RegistrySnapshot QueryServer::MetricsSnapshot() {
  util::lockdep::ExclusiveLock lock(index_mutex_);
  FoldServerMetricsExclusive();
  return index_->metrics().Snapshot();
}

std::string QueryServer::MetricsPrometheus() {
  util::lockdep::ExclusiveLock lock(index_mutex_);
  FoldServerMetricsExclusive();
  return index_->metrics().RenderPrometheusText();
}

std::string QueryServer::MetricsJson() {
  util::lockdep::ExclusiveLock lock(index_mutex_);
  FoldServerMetricsExclusive();
  return index_->metrics().RenderJson();
}

uint64_t QueryServer::pending_updates() const {
  uint64_t total = 0;
  for (const Inbox& inbox : inboxes_) {
    util::lockdep::MutexLock lock(inbox.mutex);
    total += inbox.entries.size();
  }
  return total;
}

}  // namespace gknn::server
