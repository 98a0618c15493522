#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "env/client.hpp"
#include "env/farm_types.hpp"
#include "telemetry/registry.hpp"

namespace atlas::env {

struct EnvServiceOptions {
  std::size_t threads = 0;  ///< Worker threads (0 = ThreadPool default).
  bool cache_episodes = true;          ///< Memoize offline-backend episodes.
  std::size_t cache_capacity = 65536;  ///< Entries kept (0 disables caching AND single-flight).
  /// Lock stripes over the memo/in-flight tables. 0 = auto: enough power-of-2
  /// shards (up to 16) that each stripe still holds >= 64 entries, so small
  /// caches keep exact per-stripe LRU eviction while large ones stop
  /// serializing every lookup on one mutex.
  std::size_t cache_shards = 0;
  /// Admission-control watermarks over outstanding_queries() (0 = shedding
  /// disabled — the default, so existing callers see no behavior change).
  /// At or above `shed_watermark`, kSpeculative offline queries are shed
  /// with a typed RejectReason::kShedded result; at or above
  /// `shed_hard_watermark` (0 = 2x the soft watermark), ALL offline queries
  /// shed. Metered (online) queries are never shed.
  std::size_t shed_watermark = 0;
  std::size_t shed_hard_watermark = 0;
};

/// The environment-query service every Atlas component talks to (instead of
/// owning environments and raw thread pools). One instance per deployment:
///
///   EnvService service;
///   const auto real = service.add_real_network();
///   const auto sim = service.add_simulator(params);
///   auto results = service.run_batch(queries);   // parallel, in order
///
/// The registry holds polymorphic `EnvBackend`s: in-process environments
/// (via `LocalBackend`), remote episode-RPC workers (`rpc::RemoteBackend`),
/// or any custom implementation — the service's memoization, single-flight,
/// and accounting are identical across them.
///
/// Guarantees:
///  * `run_batch` returns results positionally matching its input span.
///  * Offline episodes are memoized by (backend, config, workload, seed,
///    sim-param override); backends are deterministic per seed, so a cache
///    hit is bit-identical to a re-execution.
///  * Eviction is per-stripe LRU, weighted by the backend's recomputation
///    cost hint: among the least-recently-used entries, cheap (simulator)
///    episodes are evicted before expensive (remote / testbed) ones.
///  * Single-flight: concurrent identical offline queries — racing threads or
///    duplicates inside one batch — coalesce onto ONE episode execution whose
///    result is shared. Exactly one of them counts a cache miss (and an
///    episode); every coalesced waiter counts a cache hit, so the invariants
///    `cache_misses == episodes` and `cache_hits + cache_misses == queries`
///    hold for purely-cacheable workloads.
///  * Online (metered) backends are NEVER cached or coalesced:
///    `episodes == queries` reproduces the paper's per-interaction
///    SLA-exposure bookkeeping.
///  * The service owns its thread pool; all methods are thread-safe. Lookups
///    are striped across `cache_shard_count()` locks and the backend registry
///    is a read-mostly snapshot, so queries on different keys do not contend.
class EnvService final : public EnvClient {
 public:
  explicit EnvService(EnvServiceOptions options = {});

  EnvService(const EnvService&) = delete;
  EnvService& operator=(const EnvService&) = delete;

  // ---- backend registry ----------------------------------------------------

  using EnvClient::register_backend;
  BackendId register_backend(std::shared_ptr<const EnvBackend> backend) override;

  std::size_t backend_count() const override;
  const std::string& backend_name(BackendId id) const override;
  BackendKind backend_kind(BackendId id) const override;

  // ---- queries ---------------------------------------------------------------

  using EnvClient::run;
  EpisodeResult run(const EnvQuery& query) override;

  QueryHandle submit(EnvQuery query) override;

  /// submit() with a caller-held cancel token (see EnvClient). A token that
  /// fires before execution resolves the handle with a typed
  /// RejectReason::kCancelled result and never memoizes; a token that fires
  /// mid-flight reaches the backend's execute_cancellable (remote episodes
  /// abort via the wire kCancel; local ones finish and memoize — cheaper to
  /// complete than to interrupt, and then the entry is simply warm cache).
  QueryHandle submit_cancellable(EnvQuery query,
                                 std::shared_ptr<const CancelToken> cancel) override;

  /// Run a batch across the pool; results are positionally ordered. Safe to
  /// call from inside a pool worker (the caller-runs fallback in ThreadPool
  /// drains nested work instead of deadlocking the fixed-size pool).
  std::vector<EpisodeResult> run_batch(std::span<const EnvQuery> queries) override;

  // ---- accounting ------------------------------------------------------------

  BackendStats backend_stats(BackendId id) const override;
  EnvServiceStats stats() const override;
  void reset_stats() override;

  std::size_t cache_size() const override;
  void clear_cache() override;

  // ---- memo migration (farm control plane) -----------------------------------

  /// Snapshot every memoized episode belonging to `id`, as flattened
  /// key-values + bit-exact results (entry.key[0] is the backend id — the
  /// importer rewrites it). Does not disturb LRU order. Empty when caching is
  /// off or the backend has no entries.
  std::vector<MemoEntrySnapshot> export_memo(BackendId id) const;

  /// Install migrated memo entries under backend `id`, as if this service had
  /// executed them: inserted at the warm end of each stripe's LRU with the
  /// snapshot's recompute cost, normal capacity eviction applies. Entries
  /// already present are left untouched. Returns how many were inserted.
  std::size_t import_memo(BackendId id, std::span<const MemoEntrySnapshot> memo);

  /// Registry metadata pass-throughs, used to build a WorkerAnnounce.
  double backend_cost_hint(BackendId id) const;
  bool backend_accepts_sim_params(BackendId id) const;
  std::size_t cache_capacity() const noexcept { return options_.cache_capacity; }

  /// Whether offline episodes are memoized at all (cache_episodes &&
  /// cache_capacity > 0). When false, no cache lock is taken and no hit/miss
  /// counter moves — capacity 0 means "caching disabled", not "a cache that
  /// misses forever".
  bool caching_enabled() const noexcept;
  /// Number of lock stripes over the memo/in-flight tables.
  std::size_t cache_shard_count() const noexcept { return shards_.size(); }

  /// Queries currently executing or queued via submit(). ShardRouter uses
  /// this for least-loaded backend placement; the speculation planner budgets
  /// prefetch depth against it.
  std::size_t outstanding_queries() const noexcept override;

  /// Merge this service's serving telemetry (query latency, queue depth)
  /// into `stats`; ShardRouter::stats() calls it once per shard.
  void merge_telemetry(EnvServiceStats& stats) const;

  /// Attach a speculation planner's counter block (reported via stats()).
  void attach_speculation(std::shared_ptr<const SpeculationState> speculation) override;

  std::size_t threads() const noexcept { return pool_.size(); }
  common::ThreadPool& pool() noexcept { return pool_; }

  /// Always-on serving telemetry (src/telemetry/): `env.query_latency_ns`
  /// (per-query service time, hits and executions alike) and
  /// `env.queue_depth` (outstanding queries sampled at every arrival).
  /// Components may register additional metrics here; snapshots also ride in
  /// stats().query_latency_ns / .queue_depth.
  telemetry::MetricRegistry& metrics() noexcept { return metrics_; }
  const telemetry::MetricRegistry& metrics() const noexcept { return metrics_; }

 private:
  struct Backend {
    std::shared_ptr<const EnvBackend> impl;
    ATLAS_BACKEND_SERVICE_COUNTERS(ATLAS_STATS_ATOMIC)
    ATLAS_STATS_VISITOR(ATLAS_BACKEND_SERVICE_COUNTERS)
  };
  /// Read-mostly registry snapshot: rebuilt on (rare) registration, loaded
  /// lock-free on every query. Backends live in a deque, so the pointers
  /// stay valid as the registry grows.
  using RegistrySnapshot = std::vector<Backend*>;

  /// Memoization key: every field that determines an episode's outcome.
  struct QueryKey {
    BackendId backend = 0;
    std::vector<double> values;  ///< config ++ workload ++ sim-param override
    bool operator==(const QueryKey&) const = default;
  };
  struct QueryKeyHash {
    std::size_t operator()(const QueryKey& key) const noexcept;
  };

  /// One coalesced execution: the leader fulfils the promise, waiters share
  /// the future. Kept in the owning shard's in-flight table until done.
  struct InFlight {
    InFlight() : future(promise.get_future().share()) {}
    std::promise<EpisodeResult> promise;
    std::shared_future<EpisodeResult> future;
  };

  /// One memoized episode plus its position in the stripe's LRU list and the
  /// backend-provided recomputation cost that weights its eviction.
  struct MemoEntry {
    EpisodeResult result;
    double cost = 1.0;
    std::list<QueryKey>::iterator lru_it;
  };

  /// One lock stripe: memo entries, their LRU order (front = most recent),
  /// and the in-flight table, all for keys hashing onto this stripe. Padded
  /// so stripes do not false-share.
  struct alignas(64) CacheShard {
    std::mutex mutex;
    std::unordered_map<QueryKey, MemoEntry, QueryKeyHash> entries;
    std::list<QueryKey> lru;  ///< Eviction order; hits splice to the front.
    std::unordered_map<QueryKey, std::shared_ptr<InFlight>, QueryKeyHash> in_flight;
  };

  Backend& backend_at(BackendId id) const;
  CacheShard& shard_for(std::size_t hash) const;
  static QueryKey make_key(const EnvQuery& query);
  /// Evict until `shard.entries.size() <= shard_capacity_` (mutex held).
  void evict_locked(CacheShard& shard);
  EpisodeResult run_single_flight(Backend& backend, const EnvQuery& query,
                                  const CancelToken* cancel);
  /// `arrival` is when the query entered the service (submission time for
  /// submit(), call time for run()): deadlines measure queueing delay from
  /// there, and admission sheds before any execution cost is paid. `cancel`
  /// (may be null) is the caller's token from submit_cancellable.
  EpisodeResult run_impl(const EnvQuery& query,
                         std::chrono::steady_clock::time_point arrival,
                         const CancelToken* cancel = nullptr);
  /// run_impl + telemetry: records service latency and samples queue depth.
  EpisodeResult run_timed(const EnvQuery& query,
                          std::chrono::steady_clock::time_point arrival,
                          const CancelToken* cancel = nullptr);
  /// Shared body of submit / submit_cancellable.
  QueryHandle submit_impl(EnvQuery query, std::shared_ptr<const CancelToken> cancel);
  /// RejectReason::kNone when the query may proceed; otherwise the typed
  /// rejection to return (counters already bumped).
  RejectReason admission_check(Backend& backend, const EnvQuery& query,
                               std::chrono::steady_clock::time_point arrival);

  EnvServiceOptions options_;
  std::size_t hard_watermark_ = 0;  ///< Resolved shed_hard_watermark (0 = off).

  mutable std::mutex registry_mutex_;  ///< Serializes writers only.
  std::deque<Backend> backends_;       ///< deque: stable references across growth.
  std::atomic<std::shared_ptr<const RegistrySnapshot>> registry_;

  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::size_t shard_capacity_ = 0;  ///< Per-stripe share of cache_capacity.

  std::atomic<std::uint64_t> next_query_id_{0};
  std::atomic<std::int64_t> outstanding_{0};

  telemetry::MetricRegistry metrics_;
  telemetry::Histogram* query_latency_ = nullptr;  ///< Owned by metrics_.
  telemetry::Histogram* queue_depth_ = nullptr;    ///< Owned by metrics_.
  /// env.arena_high_water_bytes: per-worker episode-arena footprint.
  telemetry::Histogram* arena_high_water_ = nullptr;

  /// Counter block of an attached SpeculationPlanner (null until attached).
  std::atomic<std::shared_ptr<const SpeculationState>> speculation_;

  /// LAST member: destroyed first, so ~ThreadPool drains still-queued query
  /// tasks while the registry/shards they touch are alive.
  common::ThreadPool pool_;
};

}  // namespace atlas::env
