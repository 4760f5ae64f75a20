#ifndef GKNN_SERVER_QUERY_SERVER_H_
#define GKNN_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/ggrid_index.h"
#include "gpusim/device.h"
#include "obs/metrics.h"
#include "roadnet/graph.h"
#include "server/admission_gate.h"
#include "util/deadline.h"
#include "util/lockdep.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gknn::server {

/// Degradation policy knobs (docs/ROBUSTNESS.md) and concurrency sizing
/// (docs/CONCURRENCY.md).
struct ServerOptions {
  /// GPU attempts per query while the circuit breaker is closed (1 = no
  /// retry). Retries back off exponentially between attempts.
  uint32_t gpu_attempts = 3;
  double backoff_base_ms = 0.1;
  double backoff_max_ms = 5.0;
  /// Consecutive fully-failed queries (all GPU attempts exhausted) that
  /// trip the breaker into degraded CPU mode.
  uint32_t breaker_threshold = 3;
  /// While degraded, every Nth query additionally probes the GPU path; a
  /// successful probe closes the breaker.
  uint32_t probe_interval = 4;
  /// Worker threads of the server-owned pool that fans out
  /// QueryKnnBatch. 0 (the default) runs batches inline on the calling
  /// thread — the right choice for single-threaded clients and for
  /// deterministic tests. Single queries never touch the pool.
  uint32_t query_threads = 0;

  // ---- Overload control (docs/ROBUSTNESS.md "Overload control") ----

  /// Per-query latency budget in milliseconds; 0 (the default) means
  /// unlimited. A budgeted query either completes in time or returns
  /// Status::DeadlineExceeded — while waiting for an admission slot,
  /// while queued in the batch pool, or at the engine's phase-boundary
  /// cancellation checkpoints.
  double default_deadline_ms = 0;
  /// A fresh budget of default_deadline_ms from now.
  util::Deadline DefaultDeadline() const {
    return default_deadline_ms > 0
               ? util::Deadline::AfterSeconds(default_deadline_ms * 1e-3)
               : util::Deadline();
  }
  /// Queries executing concurrently before new arrivals queue for a
  /// slot; 0 (the default) disables admission control entirely.
  uint32_t max_inflight = 0;
  /// Arrivals allowed to wait for a slot once max_inflight is reached
  /// (the admission queue). Beyond it the server sheds reject-newest
  /// with Status::ResourceExhausted. 0 means no waiting room: anything
  /// over max_inflight is shed immediately. Ignored when max_inflight
  /// is 0. Also bounds the batch pool's task queue.
  uint32_t max_queued = 0;
  /// Brownout: under admission pressure (a query had to queue, or more
  /// than half the inflight slots are busy), degrade admitted queries
  /// before shedding arrivals — cheap queries (predicted device time
  /// under brownout_cheap_gpu_seconds via the §VI cost model) skip the
  /// GPU round-trip and run kCpuOnly; expensive ones shrink their
  /// candidate ring by brownout_rho_scale. Answers stay exact either
  /// way (docs/ROBUSTNESS.md); only latency/throughput trade off.
  bool brownout = false;
  double brownout_cheap_gpu_seconds = 100e-6;
  double brownout_rho_scale = 0.5;
};

/// Degradation counters; snapshot via QueryServer::stats().
///
/// Consistency contract under concurrent queries: the monotonic counters
/// (gpu_failures, retries, fallback_queries, degraded_queries) are
/// independent relaxed atomics — each is exact, but one snapshot may
/// catch them mid-query relative to each other. The
/// breaker triple (breaker_trips, breaker_closes, degraded) is published
/// through a seqlock, so within one snapshot it is mutually consistent
/// and satisfies `degraded == (breaker_trips > breaker_closes)`.
struct ServerStats {
  uint64_t gpu_failures = 0;      // GPU query attempts that returned an error
  uint64_t retries = 0;           // extra attempts after a failed one
  uint64_t fallback_queries = 0;  // queries answered by the CPU path
  uint64_t degraded_queries = 0;  // queries served while the breaker was open
  uint64_t breaker_trips = 0;
  uint64_t breaker_closes = 0;
  bool degraded = false;          // breaker currently open
  // Overload-control accounting (docs/ROBUSTNESS.md). Every query the
  // server accepts ends in exactly one bucket: admitted (and then OK or
  // its own error), shed (ResourceExhausted before getting a slot), or
  // expired (DeadlineExceeded — waiting, queued, or mid-execution).
  uint64_t admitted_queries = 0;  // granted an execution slot
  uint64_t shed_queries = 0;      // rejected: admission queue full
  uint64_t expired_queries = 0;   // returned DeadlineExceeded
  uint64_t brownout_queries = 0;  // admitted but executed degraded
};

/// Thread-safe front end over a GGridIndex — the paper's "query server"
/// (§II): data objects report location updates from many connections while
/// kNN queries arrive concurrently.
///
/// Concurrency model (docs/CONCURRENCY.md): producers call
/// Report/Deregister from any thread; updates land in a striped in-memory
/// inbox (lock per stripe). Queries run under a reader-writer lock on the
/// index: a query that finds buffered updates first takes the writer side,
/// drains the inbox, releases, and then answers under the reader side —
/// so any number of queries execute concurrently and only update
/// application is exclusive. Snapshot semantics are preserved: a query at
/// time t sees every update reported before it was issued. The lazy
/// message cleaning queries perform is serialized per cell inside
/// MessageCleaner, which is why the reader side is sufficient for them.
///
/// Robustness: a query first runs on the GPU pipeline with bounded
/// retries; when `breaker_threshold` consecutive queries exhaust their
/// attempts the server trips into degraded mode and answers from the exact
/// CPU path, probing the GPU every `probe_interval` queries until it
/// recovers. Results are identical either way — only latency degrades.
/// Breaker bookkeeping lives under its own leaf mutex so concurrent
/// readers never serialize on it for longer than a counter update.
class QueryServer {
 public:
  /// Builds the server, its index, and its batch-query pool
  /// (ServerOptions::query_threads). The graph must outlive the server.
  static util::Result<std::unique_ptr<QueryServer>> Create(
      const roadnet::Graph* graph, const core::GGridOptions& options,
      gpusim::Device* device,
      const ServerOptions& server_options = ServerOptions{});

  /// Multi-device form: the index schedules clean/query phase work across
  /// every device of the set (see GGridIndex::Build). The set must outlive
  /// the server.
  static util::Result<std::unique_ptr<QueryServer>> Create(
      const roadnet::Graph* graph, const core::GGridOptions& options,
      gpusim::DeviceSet* devices,
      const ServerOptions& server_options = ServerOptions{});

  /// As above over a host grid shared with other servers (the
  /// ShardRouter's shards; see GGridIndex::Build's shared-grid form).
  static util::Result<std::unique_ptr<QueryServer>> Create(
      std::shared_ptr<const core::GraphGrid> grid,
      const core::GGridOptions& options, gpusim::DeviceSet* devices,
      const ServerOptions& server_options = ServerOptions{});

  /// Reports an object location (producer-side, thread-safe, non-blocking
  /// beyond a stripe lock).
  void Report(core::ObjectId object, roadnet::EdgePoint position,
              double time);

  /// Deregisters an object (thread-safe).
  void Deregister(core::ObjectId object, double time);

  /// Answers a snapshot kNN query at time t_now: drains every buffered
  /// update (writer lock, skipped when the inbox is empty), then queries
  /// the index under the reader lock. Thread-safe; queries from different
  /// threads execute concurrently.
  util::Result<std::vector<core::KnnResultEntry>> QueryKnn(
      roadnet::EdgePoint location, uint32_t k, double t_now);

  /// Range variant: every object within network distance `radius`.
  /// Thread-safe like QueryKnn.
  util::Result<std::vector<core::KnnResultEntry>> QueryRange(
      roadnet::EdgePoint location, roadnet::Distance radius, double t_now);

  /// Router entry point (src/server/shard_router.h): one kNN query run
  /// through the full admitted path — drain-if-pending, retry/breaker,
  /// CPU fallback — but budgeted by the *caller's* deadline instead of
  /// this server's default, and degraded when the caller already observed
  /// overload pressure (`brownout_pressure`, OR-ed with this server's own
  /// admission signal). The ShardRouter uses it to apply one router-level
  /// deadline and brownout decision across every shard a query touches;
  /// QueryKnn is this call with the default budget and no outside
  /// pressure.
  util::Result<std::vector<core::KnnResultEntry>> QueryKnnRouted(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      const util::Deadline& deadline, bool brownout_pressure);

  /// Range variant of QueryKnnRouted. The ShardRouter's cross-border
  /// refinement uses it with radius = the merged kth distance: a bounded
  /// range probe of a border shard costs the ring it touches, not the
  /// full-k expansion a sparse remote region would force on QueryKnn.
  util::Result<std::vector<core::KnnResultEntry>> QueryRangeRouted(
      roadnet::EdgePoint location, roadnet::Distance radius, double t_now,
      const util::Deadline& deadline, bool brownout_pressure);

  /// Answers a batch of same-timestamp queries, draining the inbox once
  /// and fanning the queries over the server's pool (inline when
  /// query_threads == 0). results[i] answers locations[i]. The first
  /// per-query error fails the whole batch (matching
  /// GGridIndex::QueryKnnBatch); answers are identical to issuing the
  /// queries one by one.
  util::Result<std::vector<std::vector<core::KnnResultEntry>>> QueryKnnBatch(
      std::span<const roadnet::EdgePoint> locations, uint32_t k,
      double t_now);

  /// Buffered updates not yet applied to the index.
  uint64_t pending_updates() const;

  /// Updates applied to the index so far. Lock-free (atomic counter).
  uint64_t applied_updates() const {
    return index_->counters().updates_ingested.load(
        std::memory_order_relaxed);
  }

  /// Worker threads of the batch-query pool (0 = inline execution).
  unsigned query_threads() const { return query_pool_->num_threads(); }

  /// Queries currently holding an execution slot. Tracked even with
  /// admission control off (max_inflight == 0) so the gauge is always
  /// meaningful.
  uint32_t inflight_queries() const { return gate_.inflight(); }

  /// Arrivals currently waiting for an execution slot.
  uint32_t admission_queue_depth() const { return gate_.queued(); }

  /// Snapshot of the degradation counters. Lock-free: monitoring threads
  /// polling this never contend with queries for the index lock. See
  /// ServerStats for the consistency contract; the breaker triple is read
  /// through the seqlock so it never tears.
  ServerStats stats() const {
    ServerStats out;
    out.gpu_failures = stats_.gpu_failures.load(std::memory_order_relaxed);
    out.retries = stats_.retries.load(std::memory_order_relaxed);
    out.fallback_queries =
        stats_.fallback_queries.load(std::memory_order_relaxed);
    out.degraded_queries =
        stats_.degraded_queries.load(std::memory_order_relaxed);
    out.admitted_queries =
        stats_.admitted_queries.load(std::memory_order_relaxed);
    out.shed_queries = stats_.shed_queries.load(std::memory_order_relaxed);
    out.expired_queries =
        stats_.expired_queries.load(std::memory_order_relaxed);
    out.brownout_queries =
        stats_.brownout_queries.load(std::memory_order_relaxed);
    // Seqlock read of the breaker triple: retry while a writer is inside
    // the odd window or published a new version between our loads.
    uint64_t seq = breaker_seq_.load(std::memory_order_acquire);
    for (;;) {
      if ((seq & 1) == 0) {
        out.breaker_trips =
            stats_.breaker_trips.load(std::memory_order_relaxed);
        out.breaker_closes =
            stats_.breaker_closes.load(std::memory_order_relaxed);
        out.degraded = stats_.degraded.load(std::memory_order_relaxed);
        const uint64_t reread =
            breaker_seq_.load(std::memory_order_acquire);
        if (reread == seq) break;
        seq = reread;
      } else {
        seq = breaker_seq_.load(std::memory_order_acquire);
      }
    }
    return out;
  }

  /// Point-in-time view of every metric the server can expose: folds the
  /// device totals, transfer ledger, memory breakdown and the degradation
  /// counters above into the index's registry, then snapshots it.
  /// Thread-safe: takes the writer lock, so in-flight queries finish
  /// first and the snapshot is mutually consistent.
  obs::RegistrySnapshot MetricsSnapshot();

  /// The same fold rendered as Prometheus text / one-line JSON
  /// (gknn_cli --metrics; docs/OBSERVABILITY.md).
  std::string MetricsPrometheus();
  std::string MetricsJson();

  core::GGridIndex& index() { return *index_; }

 private:
  struct Inbox {
    struct Entry {
      core::ObjectId object;
      roadnet::EdgePoint position;
      double time;
      bool remove;
    };
    mutable util::lockdep::Mutex mutex{util::lockdep::kServerInboxClass};
    std::vector<Entry> entries;
  };

  QueryServer(std::unique_ptr<core::GGridIndex> index,
              const ServerOptions& options)
      : index_(std::move(index)),
        options_(options),
        query_pool_(options.query_threads == 0
                        ? std::make_unique<util::ThreadPool>(
                              util::ThreadPool::Inline{})
                        : std::make_unique<util::ThreadPool>(
                              options.query_threads, options.max_queued)),
        gate_(options.max_inflight, options.max_queued, options.brownout) {
    if (obs::kEnabled) {
      // Resolve the hot-path histogram handles once: Observe is
      // atomics-only, so the query path never takes the registry mutex.
      obs::MetricRegistry& registry = index_->metrics();
      admission_wait_hist_ =
          registry.GetHistogram("gknn_server_admission_wait_seconds");
      deadline_slack_hist_ =
          registry.GetHistogram("gknn_server_deadline_slack_seconds");
    }
  }

  /// Moves every buffered update into the index; requires the writer lock
  /// on index_mutex_. The only error is a bad position: the drain drops
  /// the poison entry, keeps draining, and returns the first such error —
  /// a bad producer must not wedge the inbox.
  util::Status DrainExclusive();

  /// DrainExclusive wrapped in a gknn_server_drain_seconds observation.
  util::Status TimedDrainExclusive();

  /// Takes the writer lock and drains iff the inbox holds updates; the
  /// common case (nothing buffered) never touches index_mutex_, so a
  /// stream of queries against a quiet inbox stays fully concurrent.
  util::Status DrainIfPending();

  /// One query through the retry + circuit-breaker policy; requires the
  /// reader lock on index_mutex_. `run` executes the query at a given
  /// ExecMode; it may run several times (retries, probe, CPU fallback).
  /// `query_retries` (optional) receives this query's own retry count —
  /// the global stats_.retries counter is shared across concurrent
  /// queries and cannot attribute retries to one of them.
  template <typename RunFn>
  util::Result<std::vector<core::KnnResultEntry>> ExecuteShared(
      RunFn run, uint64_t* query_retries = nullptr,
      const util::Deadline& deadline = util::Deadline(),
      bool force_cpu = false);

  /// §VI cost-model estimate of one query's device seconds, used by the
  /// brownout policy to route cheap queries to the CPU path.
  double PredictDeviceSeconds(uint32_t k) const;

  /// The full admitted single-query path: admission, deadline budget,
  /// brownout degradation, drain-if-pending, then ExecuteShared under the
  /// reader lock. `index_fn(mode, stats, control)` runs one query against
  /// the index. Centralizes the shed/expired/brownout accounting.
  /// `external_brownout` is pressure observed by a caller above this
  /// server (the ShardRouter's admission gate); it forces the brownout
  /// degradation even when this server's own admission saw none.
  template <typename IndexFn>
  util::Result<std::vector<core::KnnResultEntry>> ExecuteAdmitted(
      const util::Deadline& deadline, double predicted_gpu_seconds,
      IndexFn index_fn, bool external_brownout = false);

  /// Stamps server-side context (this query's retry count) onto the trace
  /// record the engine pushed for query `query_id`. Concurrent-safe: the
  /// record is found by id, not by ring position.
  void AnnotateTrace(uint64_t query_id, uint64_t query_retries);

  static constexpr size_t kStripes = 8;

  /// Updates of one object always land in the same stripe and each stripe
  /// drains in FIFO order, so per-object update order is preserved — the
  /// property the tombstone protocol of Algorithm 1 depends on.
  Inbox& InboxOf(core::ObjectId object) {
    return inboxes_[object % kStripes];
  }

  /// Mirror of ServerStats with atomic members, so queries running
  /// concurrently under the reader lock can bump them and monitoring
  /// threads can read them without any lock. The breaker triple
  /// (breaker_trips / breaker_closes / degraded) is additionally
  /// published through breaker_seq_ (writers hold breaker_mu_).
  struct AtomicServerStats {
    std::atomic<uint64_t> gpu_failures{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> fallback_queries{0};
    std::atomic<uint64_t> degraded_queries{0};
    std::atomic<uint64_t> breaker_trips{0};
    std::atomic<uint64_t> breaker_closes{0};
    std::atomic<bool> degraded{false};
    std::atomic<uint64_t> admitted_queries{0};
    std::atomic<uint64_t> shed_queries{0};
    std::atomic<uint64_t> expired_queries{0};
    std::atomic<uint64_t> brownout_queries{0};
  };

  /// Pushes the degradation counters into the index's registry as gauges
  /// (called by MetricsSnapshot and the renderers, under the writer
  /// lock).
  void FoldServerMetricsExclusive();

  std::unique_ptr<core::GGridIndex> index_;
  ServerOptions options_;

  /// Reader-writer lock over the index: queries hold it shared, update
  /// drains / metric folds hold it exclusive. Lock ordering
  /// (docs/CONCURRENCY.md): index_mutex_ -> inbox stripe mutexes ->
  /// cleaner stripe mutexes -> cleaner device mutex; breaker_mu_ and the
  /// tracer ring mutex are leaves. The ordering is enforced at runtime by
  /// the lockdep classes (docs/LOCKDEP.md).
  mutable util::lockdep::SharedMutex index_mutex_{
      util::lockdep::kServerIndexClass};
  Inbox inboxes_[kStripes];
  std::unique_ptr<util::ThreadPool> query_pool_;

  AtomicServerStats stats_;

  /// Breaker bookkeeping: state transitions and the failure/probe
  /// counters are serialized by breaker_mu_ (a leaf — never acquire
  /// another lock under it); breaker_seq_ is the seqlock generation for
  /// the published triple (odd while a transition is being written).
  util::lockdep::Mutex breaker_mu_{util::lockdep::kServerBreakerClass};
  std::atomic<uint64_t> breaker_seq_{0};
  uint32_t consecutive_query_failures_ = 0;  // guarded by breaker_mu_
  uint64_t degraded_query_count_ = 0;        // guarded by breaker_mu_

  /// Execution slots (docs/ROBUSTNESS.md "Overload control").
  AdmissionGate gate_;

  /// Pre-resolved overload-metric handles (null when GKNN_OBS=0); see the
  /// constructor.
  obs::Histogram* admission_wait_hist_ = nullptr;
  obs::Histogram* deadline_slack_hist_ = nullptr;

  /// Lockdep violations already folded into the registry counter, so the
  /// fold can add only the delta (guarded by the exclusive index lock, the
  /// only context folds run in).
  uint64_t folded_lockdep_violations_ = 0;
};

}  // namespace gknn::server

#endif  // GKNN_SERVER_QUERY_SERVER_H_
