#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "atlas/online_learner.hpp"
#include "env/env_service.hpp"
#include "env/seed_plan.hpp"
#include "env/shard_router.hpp"

namespace ae = atlas::env;
namespace ac = atlas::core;

namespace {

ae::Workload short_workload(std::uint64_t seed) {
  ae::Workload wl;
  wl.duration_ms = 3000.0;
  wl.seed = seed;
  return wl;
}

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed,
                   ae::SliceConfig config = ae::SliceConfig{}) {
  ae::EnvQuery q;
  q.backend = backend;
  q.config = config;
  q.workload = short_workload(seed);
  return q;
}

/// A simulator behind the polymorphic EnvBackend interface with a custom
/// cost hint — stands in for a remote farm in eviction tests.
class CostlyBackend final : public ae::EnvBackend {
 public:
  explicit CostlyBackend(double cost, std::string name = "costly")
      : name_(std::move(name)), cost_(cost) {}

  ae::EpisodeResult execute(const ae::EnvQuery& q) const override {
    return sim_.run(q.config, q.workload);
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  double cost_hint() const noexcept override { return cost_; }

 private:
  ae::Simulator sim_;
  std::string name_;
  double cost_;
};

/// Parks every execute() until released — makes a shard look loaded so the
/// router's least-loaded placement has something to avoid.
class BlockingBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    started_.fetch_add(1, std::memory_order_relaxed);
    release_.wait(false);  // std::atomic<bool>::wait
    return {};
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOnline; }
  const std::string& name() const noexcept override { return name_; }

  int started() const noexcept { return started_.load(std::memory_order_relaxed); }
  void release() {
    release_.store(true, std::memory_order_release);
    release_.notify_all();
  }

 private:
  std::string name_ = "blocking";
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

/// Give one listed stats field its own nonzero value (counters are set,
/// histograms gain one sample), for the field-list coverage test.
void grow_field(std::uint64_t& field, std::uint64_t value) { field += value; }
void grow_field(atlas::telemetry::HistogramData& field, std::uint64_t value) {
  field.record(value);
}

void expect_delta(const char* name, ae::FieldKind kind, std::uint64_t delta, std::uint64_t now,
                  std::uint64_t start) {
  EXPECT_EQ(delta, kind == ae::FieldKind::kGauge ? now : now - start) << name;
}
void expect_delta(const char* name, ae::FieldKind, const atlas::telemetry::HistogramData& delta,
                  const atlas::telemetry::HistogramData& now,
                  const atlas::telemetry::HistogramData& start) {
  EXPECT_EQ(delta.count(), now.count() - start.count()) << name;
  EXPECT_EQ(delta.sum(), now.sum() - start.sum()) << name;
}

void expect_zero(const char* name, ae::FieldKind, std::uint64_t value) {
  EXPECT_EQ(value, 0u) << name;
}
void expect_zero(const char* name, ae::FieldKind, const atlas::telemetry::HistogramData& value) {
  EXPECT_TRUE(value.empty()) << name;
}

}  // namespace

TEST(EnvService, BatchReturnsResultsInSubmissionOrder) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 4});
  const auto sim = service.add_simulator();

  // Ground truth from a directly-owned environment, one seed per slot.
  ae::Simulator direct;
  std::vector<ae::EnvQuery> batch;
  std::vector<ae::EpisodeResult> expected;
  for (std::uint64_t i = 0; i < 12; ++i) {
    ae::SliceConfig config;
    config.bandwidth_ul = 10.0 + 3.0 * static_cast<double>(i);
    batch.push_back(query(sim, 100 + i, config));
    expected.push_back(direct.run(config, short_workload(100 + i)));
  }

  const auto results = service.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].latencies_ms, expected[i].latencies_ms) << "slot " << i;
  }
}

TEST(EnvService, SubmitReturnsWorkingHandle) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  auto handle = service.submit(query(sim, 7));
  ASSERT_TRUE(handle.valid());
  EXPECT_GT(handle.id(), 0u);
  const auto result = handle.get();

  ae::Simulator direct;
  EXPECT_EQ(result.latencies_ms, direct.run(ae::SliceConfig{}, short_workload(7)).latencies_ms);
}

TEST(EnvService, CacheHitsAreDeterministicAndCounted) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  const auto first = service.run(query(sim, 42));
  const auto second = service.run(query(sim, 42));
  EXPECT_EQ(first.latencies_ms, second.latencies_ms);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.episodes, 1u);  // the episode actually ran only once
  EXPECT_EQ(service.cache_size(), 1u);

  // A different seed is a different episode.
  (void)service.run(query(sim, 43));
  EXPECT_EQ(service.backend_stats(sim).episodes, 2u);
}

TEST(EnvService, OnlineBackendsAreNeverCached) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();

  (void)service.run(query(real, 5));
  (void)service.run(query(real, 5));
  const auto stats = service.backend_stats(real);
  EXPECT_EQ(stats.kind, ae::BackendKind::kOnline);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.episodes, 2u);  // metered: every query hit the network
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(EnvService, SimParamsOverrideRunsAndCaches) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  auto q = query(sim, 9);
  q.sim_params = ae::oracle_calibration();
  const auto overridden = service.run(q);
  const auto cached = service.run(q);
  EXPECT_EQ(overridden.latencies_ms, cached.latencies_ms);
  EXPECT_EQ(service.backend_stats(sim).episodes, 1u);

  // The override must match an ephemeral simulator with those parameters...
  ae::Simulator direct(ae::oracle_calibration());
  EXPECT_EQ(overridden.latencies_ms,
            direct.run(ae::SliceConfig{}, short_workload(9)).latencies_ms);
  // ...and must key the cache separately from the backend's own parameters.
  const auto defaults = service.run(query(sim, 9));
  EXPECT_NE(defaults.latencies_ms, overridden.latencies_ms);
}

TEST(EnvService, SimParamsOverrideRejectedOffSimulatorBackends) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  // Metered backends must not be faked by an offline override...
  const auto real = service.add_real_network();
  auto q = query(real, 1);
  q.sim_params = ae::SimParams::defaults();
  EXPECT_THROW((void)service.run(q), std::invalid_argument);
  // ...and non-Simulator offline backends (multi-slice) would silently lose
  // their semantics under an override, so they are rejected too.
  const auto shared = service.add_multi_slice(ae::simulator_profile(), {ae::SliceSpec{}});
  auto mq = query(shared, 1);
  mq.sim_params = ae::SimParams::defaults();
  EXPECT_THROW((void)service.run(mq), std::invalid_argument);
}

TEST(EnvService, MultiSliceBackendRejectsUnsupportedWorkloadFields) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto shared = service.add_multi_slice(ae::simulator_profile(), {ae::SliceSpec{}});
  auto q = query(shared, 1);
  q.workload.extra_users = 2;  // the shared-carrier runner cannot express this
  EXPECT_THROW((void)service.run(q), std::invalid_argument);
}

TEST(EnvService, UnknownBackendThrows) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  EXPECT_THROW((void)service.run(query(99, 1)), std::out_of_range);
  EXPECT_THROW((void)service.submit(query(99, 1)), std::out_of_range);
}

TEST(EnvService, LruEvictionBoundsTheCache) {
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 2;
  ae::EnvService service(options);
  const auto sim = service.add_simulator();

  (void)service.run(query(sim, 1));  // A
  (void)service.run(query(sim, 2));  // B
  (void)service.run(query(sim, 3));  // C evicts A (least recently used)
  EXPECT_EQ(service.cache_size(), 2u);
  (void)service.run(query(sim, 1));  // A must re-execute
  EXPECT_EQ(service.backend_stats(sim).episodes, 4u);
}

TEST(EnvService, LruEvictionKeepsRecentlyTouchedEntries) {
  // A hit refreshes recency: unlike the old FIFO, a hot entry survives
  // churn that would have aged it out by insertion order.
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 2;
  ae::EnvService service(options);
  const auto sim = service.add_simulator();

  (void)service.run(query(sim, 1));  // A
  (void)service.run(query(sim, 2));  // B
  (void)service.run(query(sim, 1));  // touch A: B is now the LRU entry
  (void)service.run(query(sim, 3));  // C evicts B, not A
  (void)service.run(query(sim, 1));  // A still cached
  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.episodes, 3u) << "A must never re-execute";
  (void)service.run(query(sim, 2));  // B was evicted: re-executes
  EXPECT_EQ(service.backend_stats(sim).episodes, 4u);
}

TEST(EnvService, MeasureQoeMatchesEpisodeQoe) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto episode = service.run(query(sim, 11));
  EXPECT_DOUBLE_EQ(service.measure_qoe(query(sim, 11), 300.0), episode.qoe(300.0));
}

TEST(EnvService, StatsSplitOfflineFromOnline) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();

  std::vector<ae::EnvQuery> batch{query(sim, 1), query(sim, 2), query(real, 3)};
  (void)service.run_batch(batch);

  const auto stats = service.stats();
  EXPECT_EQ(stats.offline_queries, 2u);
  EXPECT_EQ(stats.online_queries, 1u);
  EXPECT_EQ(stats.total_queries(), 3u);
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_EQ(stats.backends[sim].name, "simulator");
  EXPECT_EQ(stats.backends[real].name, "real");

  service.reset_stats();
  EXPECT_EQ(service.stats().total_queries(), 0u);
}

TEST(EnvServiceStats, FieldListsDriveDeltaFoldAndReset) {
  // Every listed field (env/stats_fields.hpp) gets its own value through
  // the visitor, so a counter added to a list is covered here with no test
  // edit.
  std::uint64_t next = 1;
  const auto grow = [&](const char*, ae::FieldKind, auto& field) {
    grow_field(field, 10 * next++);
  };
  const auto grow_all = [&](ae::EnvServiceStats& stats) {
    for (auto& row : stats.backends) ae::BackendStats::visit_fields(grow, row);
    ae::EnvServiceStats::visit_fields(grow, stats);
    ae::FarmView::visit_fields(grow, stats.farm);
    ae::SpeculationView::visit_fields(grow, stats.speculation);
  };

  // Fold: each total sums its row field over the rows its filter admits.
  ae::BackendStats offline_row;
  offline_row.kind = ae::BackendKind::kOffline;
  ae::BackendStats::visit_fields(grow, offline_row);
  ae::BackendStats online_row;
  online_row.kind = ae::BackendKind::kOnline;
  ae::BackendStats::visit_fields(grow, online_row);
  ae::EnvServiceStats start;
  start.add_backend(offline_row);
  start.add_backend(online_row);
  ASSERT_EQ(start.backends.size(), 2u);
  ae::EnvServiceStats::visit_fold([&](auto total, auto row_field, ae::RowFilter rows) {
    std::uint64_t expected = 0;
    if (rows != ae::RowFilter::kOnline) expected += offline_row.*row_field;
    if (rows != ae::RowFilter::kOffline) expected += online_row.*row_field;
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(start.*total, expected);
  });

  // Delta: counters and histograms differenced, gauges passed through, and
  // a backend registered after `start` reported in full.
  ae::FarmView::visit_fields(grow, start.farm);
  ae::SpeculationView::visit_fields(grow, start.speculation);
  ae::EnvServiceStats now = start;
  now.backends.push_back(offline_row);
  grow_all(now);
  const ae::EnvServiceStats delta = now.since(start);
  const auto check = [](const char* name, ae::FieldKind kind, const auto& d, const auto& n,
                        const auto& s) { expect_delta(name, kind, d, n, s); };
  ASSERT_EQ(delta.backends.size(), 3u);
  for (std::size_t i = 0; i < start.backends.size(); ++i) {
    ae::BackendStats::visit_fields(check, delta.backends[i], now.backends[i],
                                   start.backends[i]);
  }
  ae::BackendStats::visit_fields(check, delta.backends[2], now.backends[2], ae::BackendStats{});
  ae::EnvServiceStats::visit_fields(check, delta, now, start);
  ae::FarmView::visit_fields(check, delta.farm, now.farm, start.farm);
  ae::SpeculationView::visit_fields(check, delta.speculation, now.speculation,
                                    start.speculation);

  // Reset: a real service's rows and totals all return to zero.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  const auto real = service.add_real_network();
  ae::EnvQuery crn = query(sim, 5);
  crn.crn = true;
  (void)service.run(crn);
  (void)service.run(crn);
  (void)service.run(query(real, 6));
  auto fired = std::make_shared<ae::CancelToken>(true);
  EXPECT_TRUE(service.submit_cancellable(query(sim, 7), fired).get().is_rejected());
  ASSERT_GT(service.stats().crn_hits, 0u);
  ASSERT_GT(service.stats().cancelled_total, 0u);
  service.reset_stats();
  const ae::EnvServiceStats reset = service.stats();
  const auto zero = [](const char* name, ae::FieldKind kind, const auto& v) {
    expect_zero(name, kind, v);
  };
  for (const auto& row : reset.backends) ae::BackendStats::visit_fields(zero, row);
  ae::EnvServiceStats::visit_fields(zero, reset);
}

TEST(QueryHandle, InvalidHandleIsSafeNotUB) {
  ae::QueryHandle handle;  // default-constructed: no shared state
  EXPECT_FALSE(handle.valid());
  EXPECT_NO_THROW(handle.wait());                 // no-op, not UB
  EXPECT_THROW((void)handle.get(), std::logic_error);

  // A consumed handle behaves the same: get() is one-shot.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  auto live = service.submit(query(sim, 3));
  (void)live.get();
  EXPECT_FALSE(live.valid());
  EXPECT_NO_THROW(live.wait());
  EXPECT_THROW((void)live.get(), std::logic_error);
}

TEST(EnvService, SingleFlightCoalescesRacingThreads) {
  // N threads hammer ONE cacheable query. Single-flight must collapse them
  // onto a single episode execution with exact accounting: the leader counts
  // the miss, every coalesced/late arrival counts a hit.
  constexpr std::size_t kThreads = 8;
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator();

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<ae::EpisodeResult> results(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = service.run(query(sim, 42));
    });
  }
  for (auto& th : threads) th.join();

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.episodes, 1u) << "duplicates must coalesce onto one execution";
  EXPECT_EQ(stats.queries, kThreads);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, kThreads - 1);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
  for (const auto& r : results) {
    EXPECT_EQ(r.latencies_ms, results[0].latencies_ms);  // shared result
  }
}

TEST(EnvService, DuplicateQueriesInOneBatchExecuteOnce) {
  // Duplicates INSIDE one run_batch used to race past the memo table and all
  // execute; single-flight dedups them batch-internally too.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 4});
  const auto sim = service.add_simulator();

  std::vector<ae::EnvQuery> batch;
  for (int rep = 0; rep < 8; ++rep) {
    batch.push_back(query(sim, 1));
    batch.push_back(query(sim, 2));
  }
  const auto results = service.run_batch(batch);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.episodes, 2u);  // two unique keys -> two executions
  EXPECT_EQ(stats.queries, batch.size());
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, batch.size() - 2);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].latencies_ms, results[i % 2].latencies_ms) << "slot " << i;
  }
}

TEST(EnvService, CrnPolicyReusesEpisodesAcrossStage2Iterations) {
  // Stage-2 shape: two BO iterations evaluate the SAME candidate set (an
  // incumbent neighborhood being re-scored). Under the `crn` seed policy the
  // second iteration replays the first's (config, seed) keys, so the memo
  // table serves it without running a single episode — visible as crn_hits.
  // Under `fresh` every query draws a new seed and hits nothing.
  constexpr std::size_t kCandidates = 6;
  constexpr std::size_t kIterations = 2;

  auto run_policy = [&](ae::SeedPolicy policy) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto sim = service.add_simulator();
    ae::SeedPlanOptions plan_options;
    plan_options.policy = policy;
    plan_options.replicates = 2;  // a 2-seed CRN block per iteration
    const ae::SeedStream seeds =
        ae::SeedPlan(5, plan_options).stream(ae::SeedDomain::kStage2Query, kCandidates);

    for (std::size_t iter = 0; iter < kIterations; ++iter) {
      for (std::size_t c = 0; c < kCandidates; ++c) {
        ae::SliceConfig config;
        config.bandwidth_ul = 10.0 + 4.0 * static_cast<double>(c);
        ae::EnvQuery q = query(sim, 0, config);
        seeds.apply(q, iter, c);
        (void)service.run(q);
      }
    }
    return service.backend_stats(sim);
  };

  const auto fresh = run_policy(ae::SeedPolicy::kFresh);
  const auto crn = run_policy(ae::SeedPolicy::kCrn);

  // Identical query counts: the policy changes seeds, not the workload.
  EXPECT_EQ(fresh.queries, kIterations * kCandidates);
  EXPECT_EQ(crn.queries, fresh.queries);

  // fresh: every (config, seed) key is unique — no reuse, full price.
  EXPECT_EQ(fresh.cache_hits, 0u);
  EXPECT_EQ(fresh.crn_hits, 0u);
  EXPECT_EQ(fresh.episodes, kIterations * kCandidates);

  // crn: the second iteration is served entirely from the memo table.
  EXPECT_GT(crn.cache_hits, 0u);
  EXPECT_GT(crn.crn_hits, 0u);
  EXPECT_EQ(crn.crn_hits, kCandidates);
  EXPECT_LT(crn.episodes, fresh.episodes);
  EXPECT_EQ(crn.episodes, kCandidates);
}

TEST(EnvService, CrnHitsAggregateThroughServiceAndRouterStats) {
  // crn_hits must survive both aggregation paths: EnvService::stats() and
  // ShardRouter::stats() (per-backend and service-wide totals).
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  const auto sim = router.add_simulator();

  ae::EnvQuery q = query(sim, 77);
  q.crn = true;
  (void)router.run(q);  // miss
  (void)router.run(q);  // crn hit
  (void)router.run(q);  // crn hit

  const auto backend = router.backend_stats(sim);
  EXPECT_EQ(backend.cache_hits, 2u);
  EXPECT_EQ(backend.crn_hits, 2u);
  const auto totals = router.stats();
  EXPECT_EQ(totals.crn_hits, 2u);
  EXPECT_EQ(totals.cache_hits, 2u);

  // A plain (untagged) hit is NOT a crn hit.
  ae::EnvQuery plain = query(sim, 77);
  (void)router.run(plain);
  EXPECT_EQ(router.backend_stats(sim).cache_hits, 3u);
  EXPECT_EQ(router.backend_stats(sim).crn_hits, 2u);

  router.reset_stats();
  EXPECT_EQ(router.stats().crn_hits, 0u);
}

TEST(EnvService, NestedBatchInsideWorkerDoesNotDeadlock) {
  // A follow-up batch issued from inside a pool worker (e.g. a progress
  // callback) must not deadlock the fixed-size pool: with one worker the
  // nested parallel_for relies on the caller-runs fallback.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();

  auto outer = service.pool().submit([&] {
    std::vector<ae::EnvQuery> inner{query(sim, 70), query(sim, 71), query(sim, 72)};
    return service.run_batch(inner).size();
  });
  EXPECT_EQ(outer.get(), 3u);
  EXPECT_EQ(service.backend_stats(sim).episodes, 3u);
}

TEST(EnvService, DestructionWithAbandonedHandlesIsSafe) {
  // Submitted-but-never-harvested queries may still be queued when the
  // service dies; the pool (last member) must drain them while the registry
  // and cache shards are still alive.
  for (int rep = 0; rep < 4; ++rep) {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto sim = service.add_simulator();
    for (std::uint64_t i = 0; i < 8; ++i) {
      (void)service.submit(query(sim, 900 + i));  // handle dropped immediately
    }
    // ~EnvService runs here with tasks likely still in flight.
  }
  SUCCEED();
}

TEST(ShardRouter, NestedBatchInsideShardWorkerDoesNotDeadlock) {
  // A router batch issued from inside an owning shard's (single) pool worker
  // must run same-shard queries inline instead of parking the worker on its
  // own queue.
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  const auto sim_a = router.add_simulator();  // shard 0
  const auto sim_b = router.add_simulator();  // shard 1

  auto outer = router.shard(0).pool().submit([&] {
    std::vector<ae::EnvQuery> inner{query(sim_a, 80), query(sim_b, 81), query(sim_a, 82)};
    return router.run_batch(inner).size();
  });
  EXPECT_EQ(outer.get(), 3u);
  EXPECT_EQ(router.backend_stats(sim_a).episodes, 2u);
  EXPECT_EQ(router.backend_stats(sim_b).episodes, 1u);
}

TEST(EnvService, CacheCapacityZeroDisablesCachingEndToEnd) {
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  ae::EnvService service(options);
  EXPECT_FALSE(service.caching_enabled());
  const auto sim = service.add_simulator();

  (void)service.run(query(sim, 5));
  (void)service.run(query(sim, 5));  // same key: re-executes, no phantom miss
  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.episodes, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u) << "capacity 0 means disabled, not always-missing";
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(EnvService, CacheShardCountAdaptsToCapacity) {
  // Tiny caches keep one stripe (exact global FIFO); the default capacity
  // stripes out; an explicit cache_shards is honored but never exceeds the
  // capacity.
  ae::EnvServiceOptions tiny;
  tiny.threads = 1;
  tiny.cache_capacity = 2;
  EXPECT_EQ(ae::EnvService(tiny).cache_shard_count(), 1u);

  ae::EnvServiceOptions dflt;
  dflt.threads = 1;
  EXPECT_EQ(ae::EnvService(dflt).cache_shard_count(), 16u);

  ae::EnvServiceOptions manual;
  manual.threads = 1;
  manual.cache_shards = 4;
  EXPECT_EQ(ae::EnvService(manual).cache_shard_count(), 4u);

  ae::EnvServiceOptions clamped;
  clamped.threads = 1;
  clamped.cache_capacity = 3;
  clamped.cache_shards = 64;
  EXPECT_EQ(ae::EnvService(clamped).cache_shard_count(), 3u);
}

TEST(EnvService, CostAwareEvictionPrefersCheapVictims) {
  // Capacity 2, one stripe. An expensive (remote-priced) entry inserted
  // FIRST — i.e. the least recently used — must survive eviction while the
  // cheap simulator entry goes, because recomputing it costs 1000x.
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 2;
  ae::EnvService service(options);
  const auto costly = service.register_backend(std::make_shared<CostlyBackend>(1000.0));
  const auto sim = service.add_simulator();

  (void)service.run(query(costly, 1));  // expensive entry (oldest)
  (void)service.run(query(sim, 2));     // cheap entry
  (void)service.run(query(sim, 3));     // overflow: evicts the CHEAP entry
  EXPECT_EQ(service.cache_size(), 2u);

  (void)service.run(query(costly, 1));  // still memoized: no new episode
  EXPECT_EQ(service.backend_stats(costly).episodes, 1u)
      << "the expensive entry must outlive cheap ones in the eviction scan";
  (void)service.run(query(sim, 2));  // was evicted: re-executes
  EXPECT_EQ(service.backend_stats(sim).episodes, 3u);
}

TEST(EnvService, JustInsertedEntryIsNotItsOwnEvictionVictim) {
  // A stripe full of expensive entries must not turn cheap backends into
  // cache-never citizens: the eviction scan excludes the entry the current
  // insert just added, so the cheap episode displaces the coldest expensive
  // one instead of evicting itself.
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.cache_capacity = 2;
  ae::EnvService service(options);
  const auto costly = service.register_backend(std::make_shared<CostlyBackend>(1000.0));
  const auto sim = service.add_simulator();

  (void)service.run(query(costly, 1));  // expensive, coldest
  (void)service.run(query(costly, 2));  // expensive
  (void)service.run(query(sim, 3));     // cheap insert: evicts costly seed 1, NOT itself
  (void)service.run(query(sim, 3));     // must be a hit
  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.cache_hits, 1u) << "the just-inserted cheap entry must survive";
  EXPECT_EQ(stats.episodes, 1u);
  (void)service.run(query(costly, 2));  // newer expensive entry survived
  EXPECT_EQ(service.backend_stats(costly).episodes, 2u);
}

TEST(EnvService, CustomBackendRegistersWithOwnNameKindAndCost) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto id =
      service.register_backend(std::make_shared<CostlyBackend>(250.0, "ns3-farm"));
  EXPECT_EQ(service.backend_name(id), "ns3-farm");
  EXPECT_EQ(service.backend_kind(id), ae::BackendKind::kOffline);

  (void)service.run(query(id, 5));
  const auto stats = service.backend_stats(id);
  EXPECT_EQ(stats.name, "ns3-farm");
  EXPECT_DOUBLE_EQ(stats.cost_hint, 250.0);
  EXPECT_EQ(stats.episodes, 1u);
  EXPECT_EQ(stats.rpc_failures, 0u);  // fill_stats default: no rpc surface

  EXPECT_THROW((void)service.register_backend(std::shared_ptr<const ae::EnvBackend>{}),
               std::invalid_argument);
}

TEST(EnvService, SubmitCountsOutstandingQueries) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  auto blocking = std::make_shared<BlockingBackend>();
  const auto id = service.register_backend(blocking);
  EXPECT_EQ(service.outstanding_queries(), 0u);

  std::vector<ae::QueryHandle> handles;
  for (std::uint64_t i = 0; i < 3; ++i) handles.push_back(service.submit(query(id, i)));
  while (blocking->started() < 1) std::this_thread::yield();
  EXPECT_EQ(service.outstanding_queries(), 3u);  // 1 executing + 2 queued

  blocking->release();
  for (auto& h : handles) (void)h.get();
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

TEST(ShardRouter, PlacementAvoidsLoadedShards) {
  // Registration-time least-loaded placement: while shard 0 is drowning in
  // outstanding queries, newly registered backends must land on shard 1
  // (the old blind round-robin would have alternated).
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  auto blocking = std::make_shared<BlockingBackend>();
  const auto busy = router.register_backend(blocking);  // idle tie-break: shard 0
  EXPECT_EQ(&router.service_for(busy), &router.shard(0));

  std::vector<ae::QueryHandle> handles;
  for (std::uint64_t i = 0; i < 3; ++i) handles.push_back(router.submit(query(busy, i)));
  while (blocking->started() < 1) std::this_thread::yield();

  const auto sim_a = router.add_simulator(ae::SimParams::defaults(), "sim-a");
  const auto sim_b = router.add_simulator(ae::SimParams::defaults(), "sim-b");
  EXPECT_EQ(&router.service_for(sim_a), &router.shard(1));
  EXPECT_EQ(&router.service_for(sim_b), &router.shard(1))
      << "shard 0 still has outstanding queries; placement must keep avoiding it";

  blocking->release();
  for (auto& h : handles) (void)h.get();

  // With the load drained, ties fall back to backend counts: shard 0 (1
  // backend) beats shard 1 (2 backends).
  const auto sim_c = router.add_simulator(ae::SimParams::defaults(), "sim-c");
  EXPECT_EQ(&router.service_for(sim_c), &router.shard(0));
}

TEST(ShardRouter, IdlePlacementSpreadsLikeRoundRobinAndAggregatesStats) {
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 1});
  ASSERT_EQ(router.shard_count(), 2u);
  const auto sim_a = router.add_simulator(ae::SimParams::defaults(), "sim-a");  // shard 0
  const auto real = router.add_real_network("real-b");                          // shard 1
  const auto sim_c = router.add_simulator(ae::SimParams::defaults(), "sim-c");  // shard 0
  EXPECT_EQ(router.backend_count(), 3u);
  EXPECT_EQ(router.backend_name(sim_a), "sim-a");
  EXPECT_EQ(router.backend_name(real), "real-b");
  EXPECT_EQ(router.backend_kind(real), ae::BackendKind::kOnline);
  EXPECT_EQ(&router.service_for(sim_a), &router.shard(0));
  EXPECT_EQ(&router.service_for(real), &router.shard(1));
  EXPECT_EQ(&router.service_for(sim_c), &router.shard(0));

  (void)router.run(query(sim_a, 1));
  (void)router.run(query(sim_a, 1));  // cache hit on shard 0
  (void)router.run(query(real, 2));
  (void)router.run(query(sim_c, 3));

  // Per-backend stats route through; the aggregate is ordered by GLOBAL id
  // and sums hit/miss/offline/online across shards.
  EXPECT_EQ(router.backend_stats(sim_a).cache_hits, 1u);
  const auto stats = router.stats();
  ASSERT_EQ(stats.backends.size(), 3u);
  EXPECT_EQ(stats.backends[0].name, "sim-a");
  EXPECT_EQ(stats.backends[1].name, "real-b");
  EXPECT_EQ(stats.backends[2].name, "sim-c");
  EXPECT_EQ(stats.offline_queries, 3u);
  EXPECT_EQ(stats.online_queries, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(router.cache_size(), 2u);  // sim_a seed 1 + sim_c seed 3

  router.reset_stats();
  EXPECT_EQ(router.stats().total_queries(), 0u);
  router.clear_cache();
  EXPECT_EQ(router.cache_size(), 0u);

  EXPECT_THROW((void)router.run(query(99, 1)), std::out_of_range);
}

TEST(ShardRouter, BatchFansOutAcrossShardsInOrder) {
  ae::ShardRouter router(3, ae::EnvServiceOptions{.threads = 1});
  std::vector<ae::BackendId> sims;
  for (int i = 0; i < 3; ++i) sims.push_back(router.add_simulator());

  // Ground truth from a directly-owned simulator: all shards run the same
  // default parameters, so only the per-slot seed differentiates results.
  ae::Simulator direct;
  std::vector<ae::EnvQuery> batch;
  std::vector<ae::EpisodeResult> expected;
  for (std::uint64_t i = 0; i < 9; ++i) {
    batch.push_back(query(sims[i % 3], 500 + i));
    expected.push_back(direct.run(ae::SliceConfig{}, short_workload(500 + i)));
  }

  const auto results = router.run_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].latencies_ms, expected[i].latencies_ms) << "slot " << i;
  }
  // Each shard saw exactly its own slice of the batch.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(router.backend_stats(sims[i]).queries, 3u);
}

TEST(EnvService, OnlineAccountingMatchesOnlineHistoryLength) {
  // The paper's sample-efficiency bookkeeping for free: after a stage-3 run,
  // the metered backend's query count IS the number of online interactions.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto sim = service.add_simulator(ae::oracle_calibration());
  const auto real = service.add_real_network();

  ac::OnlineOptions opts;
  opts.iterations = 6;
  opts.inner_updates = 2;
  opts.candidates = 200;
  opts.workload.duration_ms = 3000.0;
  opts.model = ac::OnlineModel::kGpWhole;  // no offline policy needed
  ac::OnlineLearner learner(nullptr, service, sim, real, opts);
  const auto run = learner.learn();

  EXPECT_EQ(run.history.size(), 6u);
  EXPECT_EQ(service.backend_stats(real).queries, run.history.size());
  EXPECT_EQ(service.backend_stats(real).episodes, run.history.size());
  EXPECT_EQ(service.stats().online_queries, run.history.size());
}
