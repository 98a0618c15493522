#include "env/env_service.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "common/arena.hpp"
#include "env/speculation.hpp"

namespace atlas::env {

namespace {

constexpr std::size_t kMaxCacheShards = 16;
/// Below this many entries per stripe, striping costs exact-LRU semantics
/// without buying contention relief, so small caches stay single-striped.
constexpr std::size_t kMinEntriesPerShard = 64;

/// Eviction candidates examined from the cold end of the LRU list. Among
/// them the cheapest-to-recompute entry goes first (sampled cost-aware LRU);
/// with uniform costs this degenerates to exact LRU.
constexpr std::size_t kEvictionScan = 8;

std::size_t resolve_shard_count(const EnvServiceOptions& options) {
  if (!options.cache_episodes || options.cache_capacity == 0) return 1;
  if (options.cache_shards != 0) {
    return std::min(options.cache_shards, options.cache_capacity);
  }
  std::size_t shards = 1;
  while (shards < kMaxCacheShards &&
         options.cache_capacity / (shards * 2) >= kMinEntriesPerShard) {
    shards *= 2;
  }
  return shards;
}

/// Counts a query as outstanding for the lifetime of its execution.
class OutstandingGuard {
 public:
  explicit OutstandingGuard(std::atomic<std::int64_t>& counter) : counter_(&counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  OutstandingGuard(const OutstandingGuard&) = delete;
  OutstandingGuard& operator=(const OutstandingGuard&) = delete;
  ~OutstandingGuard() { counter_->fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t>* counter_;
};

}  // namespace

std::size_t EnvService::QueryKeyHash::operator()(const QueryKey& key) const noexcept {
  std::size_t h = std::hash<BackendId>{}(key.backend);
  for (double v : key.values) {
    // splitmix-style combine over the raw bit patterns.
    std::size_t x = std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= x ^ (x >> 31);
    h *= 0x100000001b3ULL;
  }
  return h;
}

EnvService::EnvService(EnvServiceOptions options)
    : options_(options), pool_(options.threads) {
  const std::size_t shard_count = resolve_shard_count(options_);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
  shard_capacity_ = std::max<std::size_t>(1, options_.cache_capacity / shard_count);
  if (options_.shed_watermark > 0) {
    hard_watermark_ = options_.shed_hard_watermark > 0 ? options_.shed_hard_watermark
                                                       : options_.shed_watermark * 2;
  }
  registry_.store(std::make_shared<const RegistrySnapshot>(), std::memory_order_release);
  // Hot paths hold the metric pointers; the registry is only consulted here.
  query_latency_ = &metrics_.histogram("env.query_latency_ns");
  queue_depth_ = &metrics_.histogram("env.queue_depth");
  arena_high_water_ = &metrics_.histogram("env.arena_high_water_bytes");
}

void EnvService::attach_speculation(std::shared_ptr<const SpeculationState> speculation) {
  speculation_.store(std::move(speculation), std::memory_order_release);
}

bool EnvService::caching_enabled() const noexcept {
  return options_.cache_episodes && options_.cache_capacity > 0;
}

std::size_t EnvService::outstanding_queries() const noexcept {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(0, outstanding_.load(std::memory_order_relaxed)));
}

BackendId EnvService::register_backend(std::shared_ptr<const EnvBackend> backend) {
  if (backend == nullptr) {
    throw std::invalid_argument("EnvService: null backend");
  }
  std::scoped_lock lock(registry_mutex_);
  Backend& entry = backends_.emplace_back();
  entry.impl = std::move(backend);
  // Publish a fresh snapshot; in-flight readers keep the old one alive.
  auto snapshot = std::make_shared<RegistrySnapshot>();
  snapshot->reserve(backends_.size());
  for (Backend& b : backends_) snapshot->push_back(&b);
  registry_.store(std::shared_ptr<const RegistrySnapshot>(std::move(snapshot)),
                  std::memory_order_release);
  return static_cast<BackendId>(backends_.size() - 1);
}

std::size_t EnvService::backend_count() const {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  return snapshot->size();
}

const std::string& EnvService::backend_name(BackendId id) const {
  return backend_at(id).impl->name();
}

BackendKind EnvService::backend_kind(BackendId id) const { return backend_at(id).impl->kind(); }

EnvService::Backend& EnvService::backend_at(BackendId id) const {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  if (id >= snapshot->size()) {
    throw std::out_of_range("EnvService: unknown backend id " + std::to_string(id));
  }
  return *(*snapshot)[id];  // deque storage: pointer stays valid as the registry grows
}

EnvService::CacheShard& EnvService::shard_for(std::size_t hash) const {
  // The low bits pick the unordered_map bucket; mix in the high bits for the
  // stripe so one stripe does not own whole bucket ranges.
  return *shards_[(hash ^ (hash >> 16)) % shards_.size()];
}

EnvService::QueryKey EnvService::make_key(const EnvQuery& query) {
  QueryKey key;
  key.backend = query.backend;
  auto& v = key.values;
  v = query.config.to_vec();
  v.push_back(static_cast<double>(query.workload.traffic));
  v.push_back(query.workload.duration_ms);
  v.push_back(query.workload.distance_m);
  v.push_back(query.workload.random_walk ? 1.0 : 0.0);
  v.push_back(static_cast<double>(query.workload.extra_users));
  // Encode the 64-bit seed losslessly (a double only carries 53 bits).
  v.push_back(static_cast<double>(query.workload.seed & 0xffffffffULL));
  v.push_back(static_cast<double>(query.workload.seed >> 32));
  if (query.sim_params) {
    v.push_back(1.0);
    const auto params = query.sim_params->to_vec();
    v.insert(v.end(), params.begin(), params.end());
  }
  return key;
}

void EnvService::evict_locked(CacheShard& shard) {
  while (shard.entries.size() > shard_capacity_ && !shard.lru.empty()) {
    // Sampled cost-aware LRU: among the kEvictionScan least-recently-used
    // entries, evict the cheapest to recompute (tie: the most stale). A
    // remote episode (cost_hint ~1000x) thus outlives any simulator entry
    // in the scan window.
    auto victim = std::prev(shard.lru.end());
    double victim_cost = shard.entries.at(*victim).cost;
    auto it = victim;
    for (std::size_t scanned = 1; scanned < kEvictionScan && it != shard.lru.begin();
         ++scanned) {
      --it;
      // Never consider the MRU entry: on a small stripe the scan window
      // reaches the front, and the front is the entry this very call just
      // inserted — evicting it would give cheap backends a permanent 0%
      // hit rate whenever expensive entries fill the stripe.
      if (it == shard.lru.begin()) break;
      const double cost = shard.entries.at(*it).cost;
      if (cost < victim_cost) {
        victim = it;
        victim_cost = cost;
      }
    }
    shard.entries.erase(*victim);
    shard.lru.erase(victim);
  }
}

/// Cacheable path. Exactly one caller per key becomes the leader: it counts
/// the miss, executes the episode on its own thread (so waiters can never
/// starve it of a pool slot), publishes the result to the memo table, and
/// fulfils the shared future. Everyone else — a later thread racing on the
/// same key, or a duplicate inside the same batch — counts a hit and either
/// copies the memo entry or waits on the in-flight future.
///
/// Cancellation (speculative prefetch): a leader whose own token fires
/// resolves everyone with a typed kCancelled result and memoizes nothing. A
/// waiter that receives kCancelled but whose OWN token did not fire was
/// innocently coalesced onto an abandoned speculation — it loops back,
/// re-takes the lookup, and (usually as the new leader) runs the episode it
/// still wants.
EpisodeResult EnvService::run_single_flight(Backend& backend, const EnvQuery& query,
                                            const CancelToken* cancel) {
  QueryKey key = make_key(query);
  const std::size_t hash = QueryKeyHash{}(key);
  CacheShard& shard = shard_for(hash);

  for (;;) {
    std::shared_ptr<InFlight> flight;
    bool leader = false;
    {
      std::scoped_lock lock(shard.mutex);
      const auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        backend.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (query.crn) backend.crn_hits.fetch_add(1, std::memory_order_relaxed);
        // Touch: move to the front of the stripe's LRU order.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        return it->second.result;
      }
      const auto in_flight_it = shard.in_flight.find(key);
      if (in_flight_it != shard.in_flight.end()) {
        flight = in_flight_it->second;
      } else {
        flight = std::make_shared<InFlight>();
        shard.in_flight.emplace(key, flight);
        leader = true;
      }
    }

    if (!leader) {
      // Coalesced onto the leader's execution: account as a hit — the episode
      // meter must count unique executions, not unique askers.
      backend.cache_hits.fetch_add(1, std::memory_order_relaxed);
      if (query.crn) backend.crn_hits.fetch_add(1, std::memory_order_relaxed);
      EpisodeResult shared = flight->future.get();
      if (shared.rejected != RejectReason::kCancelled) return shared;
      // The leader was an abandoned speculation; that cancellation is not
      // ours. Undo the provisional hit and either report our own
      // cancellation or retry the lookup.
      backend.cache_hits.fetch_sub(1, std::memory_order_relaxed);
      if (query.crn) backend.crn_hits.fetch_sub(1, std::memory_order_relaxed);
      if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
        backend.cancelled.fetch_add(1, std::memory_order_relaxed);
        return shared;
      }
      continue;
    }

    // Leadership reached with the token already fired (it flipped while we
    // queued for the stripe lock): resolve everyone, execute nothing.
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      backend.cancelled.fetch_add(1, std::memory_order_relaxed);
      EpisodeResult abandoned;
      abandoned.rejected = RejectReason::kCancelled;
      {
        std::scoped_lock lock(shard.mutex);
        shard.in_flight.erase(key);
      }
      flight->promise.set_value(abandoned);
      return abandoned;
    }

    backend.cache_misses.fetch_add(1, std::memory_order_relaxed);
    EpisodeResult result;
    try {
      result = cancel != nullptr ? backend.impl->execute_cancellable(query, *cancel)
                                 : backend.impl->execute(query);
    } catch (const EpisodeCancelled&) {
      // Our token fired mid-flight: a typed result, not a fault, and the miss
      // we pre-counted never became an episode.
      backend.cache_misses.fetch_sub(1, std::memory_order_relaxed);
      backend.cancelled.fetch_add(1, std::memory_order_relaxed);
      EpisodeResult abandoned;
      abandoned.rejected = RejectReason::kCancelled;
      {
        std::scoped_lock lock(shard.mutex);
        shard.in_flight.erase(key);
      }
      flight->promise.set_value(abandoned);
      return abandoned;
    } catch (...) {
      {
        std::scoped_lock lock(shard.mutex);
        shard.in_flight.erase(key);
      }
      // Waiters rethrow; the key stays uncached so a later query retries.
      flight->promise.set_exception(std::current_exception());
      throw;
    }
    // A backend may itself answer with a typed rejection (a remote worker
    // shed the query or its deadline died in the worker's queue): no episode
    // ran, and memoizing it would replay the rejection to every future asker.
    if (result.is_rejected()) {
      {
        std::scoped_lock lock(shard.mutex);
        shard.in_flight.erase(key);
      }
      flight->promise.set_value(result);
      return result;
    }
    backend.episodes.fetch_add(1, std::memory_order_relaxed);

    {
      std::scoped_lock lock(shard.mutex);
      const auto [it, inserted] = shard.entries.try_emplace(key);
      if (inserted) {
        shard.lru.push_front(it->first);
        it->second.result = result;
        it->second.cost = backend.impl->cost_hint();
        it->second.lru_it = shard.lru.begin();
        evict_locked(shard);
      }
      shard.in_flight.erase(key);
    }
    flight->promise.set_value(result);
    return result;
  }
}

RejectReason EnvService::admission_check(Backend& backend, const EnvQuery& query,
                                         std::chrono::steady_clock::time_point arrival) {
  // A deadline that elapsed while the query sat in the submit queue takes
  // precedence: the caller stopped wanting this result, shed or not.
  if (query.deadline_ms > 0.0) {
    const double waited_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - arrival)
            .count();
    if (waited_ms >= query.deadline_ms) {
      backend.deadline_rejected.fetch_add(1, std::memory_order_relaxed);
      return RejectReason::kDeadlineExceeded;
    }
  }
  // Watermark shedding applies to offline work only: metered queries were
  // deliberately spent and must reach the network.
  if (options_.shed_watermark > 0 && backend.impl->kind() == BackendKind::kOffline) {
    const std::size_t depth = outstanding_queries();
    const bool shed = depth >= hard_watermark_ ||
                      (depth >= options_.shed_watermark &&
                       query.priority == QueryPriority::kSpeculative);
    if (shed) {
      backend.shedded.fetch_add(1, std::memory_order_relaxed);
      return RejectReason::kShedded;
    }
  }
  return RejectReason::kNone;
}

EpisodeResult EnvService::run_impl(const EnvQuery& query,
                                   std::chrono::steady_clock::time_point arrival,
                                   const CancelToken* cancel) {
  Backend& backend = backend_at(query.backend);
  if (query.sim_params && !backend.impl->accepts_sim_params()) {
    // An override replaces the episode's profile wholesale; allowing it on a
    // metered backend would fake real interactions, and on a non-Simulator
    // offline backend (e.g. multi-slice) it would silently drop the
    // backend's own semantics.
    throw std::invalid_argument("EnvService: sim_params overrides are not accepted by backend '" +
                                backend.impl->name() + "'");
  }
  backend.queries.fetch_add(1, std::memory_order_relaxed);

  // A token that fired while the query sat in the submit queue: the caller
  // (a speculation planner closing its iteration) stopped wanting this
  // result before anything executed. Typed, counted, never cached.
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    backend.cancelled.fetch_add(1, std::memory_order_relaxed);
    EpisodeResult abandoned;
    abandoned.rejected = RejectReason::kCancelled;
    return abandoned;
  }

  // Overload protection: shed or deadline-expire BEFORE paying any execution
  // or cache cost. Rejections are typed results, never cached, and keep the
  // accounting exact: hits + misses + rejected() == queries for cacheable
  // workloads, episodes + rejected() == queries for uncached ones.
  if (const RejectReason reason = admission_check(backend, query, arrival);
      reason != RejectReason::kNone) {
    EpisodeResult rejected;
    rejected.rejected = reason;
    return rejected;
  }

  // Tracing episodes carry per-frame payloads and are observational; keep
  // them out of the memo table. With caching disabled (capacity 0) there is
  // no table to consult at all: no lock, no phantom miss counters.
  const bool cacheable = caching_enabled() && backend.impl->kind() == BackendKind::kOffline &&
                         !query.workload.collect_traces;
  if (cacheable) {
    return run_single_flight(backend, query, cancel);
  }

  try {
    EpisodeResult result = cancel != nullptr
                               ? backend.impl->execute_cancellable(query, *cancel)
                               : backend.impl->execute(query);
    if (!result.is_rejected()) backend.episodes.fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (const EpisodeCancelled&) {
    backend.cancelled.fetch_add(1, std::memory_order_relaxed);
    EpisodeResult abandoned;
    abandoned.rejected = RejectReason::kCancelled;
    return abandoned;
  }
}

EpisodeResult EnvService::run_timed(const EnvQuery& query,
                                    std::chrono::steady_clock::time_point arrival,
                                    const CancelToken* cancel) {
  const auto start = std::chrono::steady_clock::now();
  EpisodeResult result = run_impl(query, arrival, cancel);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  query_latency_->record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  // This worker thread's episode-arena high-water mark: the distribution
  // over workers shows whether the per-worker slabs have warmed up to the
  // biggest episode each one serves (run_batch reuses them across queries).
  arena_high_water_->record(common::Arena::thread_slot().high_water());
  return result;
}

EpisodeResult EnvService::run(const EnvQuery& query) {
  OutstandingGuard guard(outstanding_);
  queue_depth_->record(outstanding_queries());
  return run_timed(query, std::chrono::steady_clock::now());
}

QueryHandle EnvService::submit(EnvQuery query) {
  return submit_impl(std::move(query), nullptr);
}

QueryHandle EnvService::submit_cancellable(EnvQuery query,
                                           std::shared_ptr<const CancelToken> cancel) {
  return submit_impl(std::move(query), std::move(cancel));
}

QueryHandle EnvService::submit_impl(EnvQuery query,
                                    std::shared_ptr<const CancelToken> cancel) {
  // Validate the backend id on the submitting thread, so bad handles fail
  // fast instead of inside a worker.
  (void)backend_at(query.backend);
  const std::uint64_t id = next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Count the query as outstanding from submission (queued work is load the
  // router's placement must see), not just from execution start.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_->record(outstanding_queries());
  std::future<EpisodeResult> future;
  try {
    // Deadlines are measured from SUBMISSION: time spent queued behind other
    // work counts against the budget, which is exactly the staleness a
    // deadline protects against.
    const auto arrival = std::chrono::steady_clock::now();
    future = pool_.submit([this, arrival, q = std::move(query), c = std::move(cancel)] {
      struct Release {
        std::atomic<std::int64_t>* counter;
        ~Release() { counter->fetch_sub(1, std::memory_order_relaxed); }
      } release{&outstanding_};
      return run_timed(q, arrival, c.get());
    });
  } catch (...) {
    // The task never enqueued, so its Release will never run; a leaked
    // increment would make placement shun this shard forever.
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  return QueryHandle(id, std::move(future));
}

std::vector<EpisodeResult> EnvService::run_batch(std::span<const EnvQuery> queries) {
  std::vector<EpisodeResult> results(queries.size());
  if (queries.empty()) return results;
  if (queries.size() == 1) {
    results[0] = run(queries[0]);
    return results;
  }
  pool_.parallel_for(queries.size(), [&](std::size_t i) { results[i] = run(queries[i]); });
  return results;
}

BackendStats EnvService::backend_stats(BackendId id) const {
  const Backend& backend = backend_at(id);
  BackendStats stats;
  stats.name = backend.impl->name();
  stats.kind = backend.impl->kind();
  stats.cost_hint = backend.impl->cost_hint();
  load_fields(backend, stats);
  backend.impl->fill_stats(stats);  // rpc retries/failures for remote backends
  return stats;
}

EnvServiceStats EnvService::stats() const {
  EnvServiceStats total;
  const std::size_t n = backend_count();
  total.backends.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    total.add_backend(backend_stats(static_cast<BackendId>(id)));
  }
  merge_telemetry(total);
  if (const auto speculation = speculation_.load(std::memory_order_acquire)) {
    total.speculation = speculation->view();
  }
  return total;
}

void EnvService::merge_telemetry(EnvServiceStats& stats) const {
  stats.query_latency_ns.merge(query_latency_->snapshot());
  stats.queue_depth.merge(queue_depth_->snapshot());
}

void EnvService::reset_stats() {
  const auto snapshot = registry_.load(std::memory_order_acquire);
  for (Backend* backend : *snapshot) {
    reset_fields(*backend);
    backend->impl->reset_stats();  // backend-owned counters (rpc retries/failures)
  }
  metrics_.reset();
}

std::vector<MemoEntrySnapshot> EnvService::export_memo(BackendId id) const {
  (void)backend_at(id);  // validate before walking the stripes
  std::vector<MemoEntrySnapshot> memo;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      if (key.backend != id) continue;
      MemoEntrySnapshot snapshot;
      snapshot.key.reserve(key.values.size() + 1);
      snapshot.key.push_back(static_cast<double>(key.backend));
      snapshot.key.insert(snapshot.key.end(), key.values.begin(), key.values.end());
      snapshot.result = entry.result;
      snapshot.cost = entry.cost;
      memo.push_back(std::move(snapshot));
    }
  }
  return memo;
}

std::size_t EnvService::import_memo(BackendId id, std::span<const MemoEntrySnapshot> memo) {
  (void)backend_at(id);
  if (!caching_enabled()) return 0;
  std::size_t imported = 0;
  for (const auto& snapshot : memo) {
    if (snapshot.key.empty()) continue;  // key[0] is the (rewritten) backend id
    QueryKey key;
    key.backend = id;
    key.values.assign(snapshot.key.begin() + 1, snapshot.key.end());
    const std::size_t hash = QueryKeyHash{}(key);
    CacheShard& shard = shard_for(hash);
    std::scoped_lock lock(shard.mutex);
    const auto [it, inserted] = shard.entries.try_emplace(std::move(key));
    if (!inserted) continue;  // local entry wins: it is already bit-identical
    shard.lru.push_front(it->first);
    it->second.result = snapshot.result;
    it->second.cost = snapshot.cost;
    it->second.lru_it = shard.lru.begin();
    evict_locked(shard);
    ++imported;
  }
  return imported;
}

double EnvService::backend_cost_hint(BackendId id) const {
  return backend_at(id).impl->cost_hint();
}

bool EnvService::backend_accepts_sim_params(BackendId id) const {
  return backend_at(id).impl->accepts_sim_params();
}

std::size_t EnvService::cache_size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

void EnvService::clear_cache() {
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    shard->entries.clear();
    shard->lru.clear();
  }
}

}  // namespace atlas::env
