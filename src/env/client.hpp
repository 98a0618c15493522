#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "env/backend.hpp"
#include "env/multi_slice.hpp"

namespace atlas::env {

class EnvService;
class ShardRouter;

/// Future-like handle returned by EnvClient::submit.
class QueryHandle {
 public:
  QueryHandle() = default;

  /// Monotonic id of the submission (0 for a default-constructed handle).
  std::uint64_t id() const noexcept { return id_; }
  bool valid() const noexcept { return future_.valid(); }

  /// Block until the episode completes and return its result (at most once).
  /// Throws std::logic_error when the handle is default-constructed,
  /// moved-from, or already consumed (never UB).
  EpisodeResult get();
  /// Block until the episode completes; no-op on an invalid handle.
  void wait() const {
    if (future_.valid()) future_.wait();
  }

 private:
  friend class EnvService;
  QueryHandle(std::uint64_t id, std::future<EpisodeResult> future)
      : id_(id), future_(std::move(future)) {}

  std::uint64_t id_ = 0;
  std::future<EpisodeResult> future_;
};

/// Farm-membership counters (FarmView; atomics in FarmState), filled from
/// the FarmController's shared block. The two gauges are levels, not
/// activity, so deltas pass them through.
#define ATLAS_FARM_FIELDS(X)                                                          \
  X(workers, kCounter)               /* workers ever admitted */                      \
  X(workers_serving, kGauge)         /* currently healthy */                          \
  X(workers_suspect, kGauge)         /* missed heartbeats, not yet dead */            \
  X(workers_joined, kCounter)                                                         \
  X(workers_lost, kCounter)          /* declared dead (missed-heartbeat limit) */     \
  X(workers_drained, kCounter)       /* gracefully removed, memo migrated */          \
  X(heartbeats_missed, kCounter)                                                      \
  X(episodes_redispatched, kCounter) /* re-run on a replica after a worker fault */   \
  X(memo_entries_migrated, kCounter) /* worker-to-worker memo transfers */            \
  X(backends_migrated, kCounter)     /* backends whose memo found a new shard */      \
  X(hedges, kCounter)                /* hedged second attempts launched */            \
  X(hedge_wins, kCounter)            /* hedges whose SECOND attempt returned first */ \
  X(breaker_trips, kCounter)         /* per-replica circuit breakers opened */

/// Farm-membership counters, filled when a FarmController is attached to the
/// reporting ShardRouter (env/farm_controller.hpp). Client-side bookkeeping —
/// not part of the wire stats snapshot.
struct FarmView {
  bool active = false;  ///< a FarmController is (or was) attached
  ATLAS_FARM_FIELDS(ATLAS_STATS_FIELD)
  ATLAS_STATS_VISITOR(ATLAS_FARM_FIELDS)
};

class SpeculationState;

/// Speculative-prefetch counters (SpeculationView; atomics in
/// SpeculationState). Invariant, settled at every iteration close:
/// launched == hits + cancelled + wasted.
#define ATLAS_SPECULATION_FIELDS(X)                                           \
  X(launched, kCounter)  /* speculative episodes submitted */                 \
  X(hits, kCounter)      /* speculations BO later committed to */             \
  X(cancelled, kCounter) /* abandoned before an episode ran (token cancel, */ \
                         /* watermark shed, or deadline) */                   \
  X(wasted, kCounter)    /* executed but never committed (warm cache) */

/// Speculative-prefetch counters, filled when a SpeculationPlanner
/// (env/speculation.hpp) is attached to the reporting client. Client-side
/// bookkeeping — not part of the wire stats snapshot.
struct SpeculationView {
  bool active = false;  ///< a SpeculationPlanner is (or was) attached
  ATLAS_SPECULATION_FIELDS(ATLAS_STATS_FIELD)
  ATLAS_STATS_VISITOR(ATLAS_SPECULATION_FIELDS)

  /// Fraction of launched speculations BO actually committed to.
  double hit_rate() const noexcept {
    return launched == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(launched);
  }
};

/// Which backend rows a service total sums.
enum class RowFilter { kAll, kOffline, kOnline };

/// EnvServiceStats scalar totals: X(total, kind, row_field, rows) — each
/// total is the sum of BackendStats::row_field over the `rows` backends.
/// Typed rejections (shed / deadline / cancelled) are counted in *_queries
/// too, so hits + misses + rejections == queries stays exact for cacheable
/// loads.
#define ATLAS_SERVICE_TOTALS(X)                                                   \
  X(offline_queries, kCounter, queries, kOffline)         /* cheap (simulator) */ \
  X(online_queries, kCounter, queries, kOnline)           /* metered real */      \
  X(cache_hits, kCounter, cache_hits, kAll)                                       \
  X(cache_misses, kCounter, cache_misses, kAll)                                   \
  X(crn_hits, kCounter, crn_hits, kAll)                   /* seed_plan reuse */   \
  X(shed_total, kCounter, shedded, kAll)                  /* watermark sheds */   \
  X(deadline_rejected, kCounter, deadline_rejected, kAll)                         \
  X(cancelled_total, kCounter, cancelled, kAll)           /* speculations */      \
  X(reconnects, kCounter, rpc_reconnects, kAll)           /* remote links */
/// Serving telemetry (src/telemetry/), merged across shards by ShardRouter:
/// per-query service latency (cache hits and episode executions alike) and
/// the queue depth observed at each submission/run, both always-on; plus
/// the worker-side RPC service time (decode -> response encoded), filled
/// only on snapshots exported by an EpisodeRpcServer.
#define ATLAS_SERVICE_HISTOGRAMS(X) \
  X(query_latency_ns, kHistogram)   \
  X(queue_depth, kHistogram)        \
  X(rpc_service_ns, kHistogram)
#define ATLAS_SERVICE_FIELDS(X) ATLAS_SERVICE_TOTALS(X) ATLAS_SERVICE_HISTOGRAMS(X)

/// Service-wide accounting snapshot.
struct EnvServiceStats {
  std::vector<BackendStats> backends;
  ATLAS_SERVICE_FIELDS(ATLAS_STATS_FIELD)
  ATLAS_STATS_VISITOR(ATLAS_SERVICE_FIELDS)
  /// Farm-membership counters; `farm.active` only when a FarmController is
  /// attached to the reporting router.
  FarmView farm;
  /// Speculative-prefetch counters; `speculation.active` only when a
  /// SpeculationPlanner is attached to the reporting client.
  SpeculationView speculation;

  /// Calls f(&EnvServiceStats::total, &BackendStats::row_field, rows) for
  /// every scalar total: the fold's recipe, straight from the list.
  template <typename F>
  static void visit_fold(F&& f) {
#define ATLAS_SERVICE_FOLD(total, kind, row_field, rows)                 \
  f(&EnvServiceStats::total, &BackendStats::row_field, RowFilter::rows);
    ATLAS_SERVICE_TOTALS(ATLAS_SERVICE_FOLD)
#undef ATLAS_SERVICE_FOLD
  }

  /// Append one backend row and fold it into the totals — the one fold
  /// behind EnvService::stats() and ShardRouter::stats().
  void add_backend(BackendStats row);

  /// The activity since `start` (an earlier snapshot of the same client):
  /// every counter and histogram differenced — backend rows by index, the
  /// totals, the farm and speculation blocks — while gauges keep their
  /// current level. Backends registered after `start` report in full.
  EnvServiceStats since(const EnvServiceStats& start) const;

  std::uint64_t total_queries() const noexcept { return offline_queries + online_queries; }
  double hit_rate() const noexcept {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }
  double crn_hit_rate() const noexcept {
    const std::uint64_t q = total_queries();
    return q == 0 ? 0.0 : static_cast<double>(crn_hits) / static_cast<double>(q);
  }

  /// One coherent serving report: a per-backend table (kind, cost, queries,
  /// hits, CRN hits, episodes, rpc retries/failures, and RPC latency
  /// quantiles where measured) plus a totals row with the service-level
  /// query-latency quantiles. Every serving surface (examples, loadgen,
  /// benches) prints THIS instead of a hand-rolled subset.
  common::Table summary() const;
};

/// The query surface every Atlas stage talks to: a registry of `EnvBackend`s
/// addressed by `BackendId` plus cache-aware batch execution and accounting.
/// `EnvService` implements it with one pool and one memo table; `ShardRouter`
/// fans the same address space across many services (and, via
/// `rpc::RemoteBackend`, across hosts). Stages take an `EnvClient&`, so the
/// same pipeline runs against one process or a whole farm unchanged.
class EnvClient {
 public:
  virtual ~EnvClient() = default;

  // ---- backend registry ----------------------------------------------------

  /// Register an execution target (local, remote, testbed — anything
  /// implementing `EnvBackend`). Name, kind, and cost come from the backend.
  virtual BackendId register_backend(std::shared_ptr<const EnvBackend> backend) = 0;

  /// Register a caller-owned environment. The reference must outlive the
  /// client (use the shared_ptr overload for client-owned backends).
  BackendId register_backend(const NetworkEnvironment& environment, std::string name,
                             BackendKind kind);
  BackendId register_backend(std::shared_ptr<const NetworkEnvironment> environment,
                             std::string name, BackendKind kind);

  /// Client-owned simulator with the given Table 3 parameters (offline).
  BackendId add_simulator(const SimParams& params = SimParams::defaults(),
                          std::string name = "simulator");
  /// Client-owned testbed surrogate (online, metered).
  BackendId add_real_network(std::string name = "real");
  /// Client-owned multi-slice deployment: queries drive the target slice,
  /// `background` tenants are fixed (offline unless `kind` says otherwise).
  BackendId add_multi_slice(NetworkProfile profile, std::vector<SliceSpec> background,
                            std::string name = "multi-slice",
                            BackendKind kind = BackendKind::kOffline);

  virtual std::size_t backend_count() const = 0;
  virtual const std::string& backend_name(BackendId id) const = 0;
  virtual BackendKind backend_kind(BackendId id) const = 0;

  // ---- queries -------------------------------------------------------------

  /// Run one query synchronously on the calling thread (cache-aware).
  virtual EpisodeResult run(const EnvQuery& query) = 0;
  EpisodeResult run(BackendId backend, const SliceConfig& config, const Workload& workload);

  /// Enqueue one query on the owning pool and return a handle to its result.
  virtual QueryHandle submit(EnvQuery query) = 0;

  /// Like submit, but the caller keeps a cancel token: flipping it before the
  /// episode executes resolves the handle with a typed
  /// RejectReason::kCancelled result (never memoized); flipping it mid-flight
  /// reaches cancellable backends (remote episodes abort via the wire
  /// kCancel). The speculative prefetcher uses this to abandon mispredicted
  /// episodes still queued at iteration close. Default: token ignored (plain
  /// submit) — clients without a cancellation path still run the query.
  virtual QueryHandle submit_cancellable(EnvQuery query,
                                         std::shared_ptr<const CancelToken> cancel) {
    (void)cancel;
    return submit(std::move(query));
  }

  /// Run a batch across the owning pool(s); results are positionally ordered.
  virtual std::vector<EpisodeResult> run_batch(std::span<const EnvQuery> queries) = 0;

  /// Convenience: QoE = Pr(latency <= threshold) of one episode / a batch.
  double measure_qoe(const EnvQuery& query, double threshold_ms);
  double measure_qoe(BackendId backend, const SliceConfig& config, const Workload& workload,
                     double threshold_ms);
  std::vector<double> measure_qoe_batch(std::span<const EnvQuery> queries, double threshold_ms);

  // ---- accounting ----------------------------------------------------------

  virtual BackendStats backend_stats(BackendId id) const = 0;
  virtual EnvServiceStats stats() const = 0;
  virtual void reset_stats() = 0;

  /// Queries submitted but not yet resolved, summed across shards. The
  /// speculation planner budgets prefetch depth against this (idle capacity
  /// only). Default 0: clients without queue accounting never throttle.
  virtual std::size_t outstanding_queries() const { return 0; }

  /// Attach a speculation planner's shared counter block so stats()
  /// snapshots report it as EnvServiceStats::speculation. Default: ignored.
  virtual void attach_speculation(std::shared_ptr<const SpeculationState> speculation) {
    (void)speculation;
  }

  /// Entries currently memoized (summed across shards / stripes).
  virtual std::size_t cache_size() const = 0;
  virtual void clear_cache() = 0;
};

}  // namespace atlas::env
