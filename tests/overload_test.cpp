// Overload-protection behavior under deterministic pressure: watermark load
// shedding, deadline admission, hedged dispatch, and per-replica circuit
// breakers. Companion to fault_injection_test.cpp in the `chaos` ctest
// label; every scenario here is engineered to be schedule-independent (gated
// backends, one-sided races, huge cooldowns), and the reproducibility tests
// run each scenario twice and require IDENTICAL counters — that is the
// chaos harness's acceptance bar.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/fault_injection.hpp"

namespace ae = atlas::env;

namespace {

ae::EnvQuery query(ae::BackendId backend, std::uint64_t seed,
                   ae::QueryPriority priority = ae::QueryPriority::kNormal) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 500.0;
  q.workload.seed = seed;
  q.priority = priority;
  return q;
}

/// Offline backend that parks every execute() until released — the knob that
/// holds outstanding_queries() at an exact depth while admission decisions
/// are made. (env_service_test.cpp has an online twin; shedding is
/// offline-only, so this one must report kOffline.)
class GatedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    started_.fetch_add(1, std::memory_order_relaxed);
    release_.wait(false);  // std::atomic<bool>::wait
    return {};
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

  int started() const noexcept { return started_.load(std::memory_order_relaxed); }
  void release() {
    release_.store(true, std::memory_order_release);
    release_.notify_all();
  }

 private:
  std::string name_ = "gated";
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

/// Replica fake whose result identifies which replica answered.
class TaggedBackend final : public ae::EnvBackend {
 public:
  explicit TaggedBackend(double tag) : tag_(tag) {}

  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    ae::EpisodeResult result;
    result.latencies_ms = {tag_};
    result.frames_completed = static_cast<std::size_t>(tag_);
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_ = "tagged";
  double tag_;
};

/// Replica fake that never answers on its own: execute_cancellable polls the
/// token and throws EpisodeCancelled once the hedge winner cancels it. The
/// bounded fallback keeps a broken test from parking forever.
class ParkedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery& q) const override {
    ae::CancelToken never{false};
    return execute_cancellable(q, never);
  }
  ae::EpisodeResult execute_cancellable(const ae::EnvQuery&,
                                        const ae::CancelToken& cancel) const override {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (cancel.load(std::memory_order_acquire)) throw ae::EpisodeCancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};  // test failure path: the hedge never fired
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

 private:
  std::string name_ = "parked";
};

/// Replica fake that always fails — drives the circuit breaker.
class FailingBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("replica down");
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }

  int calls() const noexcept { return calls_.load(std::memory_order_relaxed); }

 private:
  std::string name_ = "failing";
  mutable std::atomic<int> calls_{0};
};

std::shared_ptr<std::atomic<int>> serving_health() {
  return std::make_shared<std::atomic<int>>(static_cast<int>(ae::WorkerState::kServing));
}

ae::WorkerBackendInfo sim_descriptor() {
  ae::WorkerBackendInfo info;
  info.name = "sim-pool";
  info.kind = ae::BackendKind::kOffline;
  return info;
}

}  // namespace

// ---- watermark shedding ----------------------------------------------------

TEST(OverloadShedding, SpeculativeShedsAtSoftWatermarkNormalAtHard) {
  // Soft watermark 2, hard 4 (the 2x default). Depth counts the probing
  // query itself, so with two gated queries parked the service sits at
  // depth 3 during a sync run().
  ae::EnvServiceOptions options;
  options.threads = 2;
  options.shed_watermark = 2;
  ae::EnvService service(options);
  const auto gated_backend = std::make_shared<GatedBackend>();
  const auto gate = service.register_backend(gated_backend);
  const auto sim = service.add_simulator();

  auto h1 = service.submit(query(gate, 1));
  auto h2 = service.submit(query(gate, 2));
  while (gated_backend->started() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Depth 3 >= soft(2): speculative work sheds; >= hard(4) is not reached,
  // so normal-priority work still runs.
  const auto shed = service.run(query(sim, 100, ae::QueryPriority::kSpeculative));
  EXPECT_TRUE(shed.is_rejected());
  EXPECT_EQ(shed.rejected, ae::RejectReason::kShedded);
  EXPECT_TRUE(shed.latencies_ms.empty());  // a rejection carries no measurements

  const auto ran = service.run(query(sim, 101, ae::QueryPriority::kNormal));
  EXPECT_FALSE(ran.is_rejected());

  // Park a third query: depth 4 >= hard(4) sheds EVERYTHING offline.
  auto h3 = service.submit(query(gate, 3));
  while (gated_backend->started() < 2 || service.outstanding_queries() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto hard_shed = service.run(query(sim, 102, ae::QueryPriority::kNormal));
  EXPECT_TRUE(hard_shed.is_rejected());
  EXPECT_EQ(hard_shed.rejected, ae::RejectReason::kShedded);

  gated_backend->release();
  (void)h1.get();
  (void)h2.get();
  (void)h3.get();

  // Accounting: rejections are counted per backend and in the service
  // totals, and the exact invariant extends to hits+misses+rejected==queries.
  const auto sim_stats = service.backend_stats(sim);
  EXPECT_EQ(sim_stats.shedded, 2u);
  EXPECT_EQ(sim_stats.queries, 3u);
  EXPECT_EQ(sim_stats.cache_hits + sim_stats.cache_misses + sim_stats.rejected(),
            sim_stats.queries);
  EXPECT_EQ(sim_stats.episodes, 1u);  // only the admitted query ran

  // The same invariant at SUMMARY level: totals must balance exactly.
  const auto totals = service.stats();
  EXPECT_EQ(totals.shed_total, 2u);
  EXPECT_EQ(totals.cache_hits + totals.cache_misses + totals.shed_total +
                totals.deadline_rejected + totals.cancelled_total,
            totals.total_queries());

  // Rejected queries release their outstanding slot: the gauge returns to 0,
  // so placement does not see phantom load.
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

TEST(OverloadShedding, RejectionsAreNeverMemoized) {
  ae::EnvServiceOptions options;
  options.threads = 2;
  options.shed_watermark = 1;  // depth counts self: every offline query >= 1
  ae::EnvService service(options);
  const auto sim = service.add_simulator();

  // With watermark 1 a lone speculative query sheds on its own footprint.
  const auto shed = service.run(query(sim, 500, ae::QueryPriority::kSpeculative));
  ASSERT_EQ(shed.rejected, ae::RejectReason::kShedded);
  EXPECT_EQ(service.cache_size(), 0u);  // the rejection did NOT enter the memo

  // The same (config, seed) later, under no pressure: a genuine execution —
  // a cached rejection would have been returned as a phantom "hit" here.
  const auto ran = service.run(query(sim, 500, ae::QueryPriority::kNormal));
  EXPECT_FALSE(ran.is_rejected());
  ae::Simulator direct;
  ae::Workload wl;
  wl.duration_ms = 500.0;
  wl.seed = 500;
  EXPECT_EQ(ran.latencies_ms, direct.run(ae::SliceConfig{}, wl).latencies_ms);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.shedded, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.episodes, 1u);
}

TEST(OverloadShedding, CapacityZeroKeepsRejectionAccountingExact) {
  // No memo table at all: the uncached invariant episodes+rejected==queries
  // must hold instead of the hit/miss one.
  ae::EnvServiceOptions options;
  options.threads = 2;
  options.cache_capacity = 0;
  options.shed_watermark = 1;
  ae::EnvService service(options);
  const auto sim = service.add_simulator();

  const auto shed = service.run(query(sim, 1, ae::QueryPriority::kSpeculative));
  EXPECT_EQ(shed.rejected, ae::RejectReason::kShedded);
  const auto ran = service.run(query(sim, 2, ae::QueryPriority::kNormal));
  EXPECT_FALSE(ran.is_rejected());

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.episodes + stats.rejected(), stats.queries);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(service.outstanding_queries(), 0u);
}

TEST(OverloadShedding, OnlineQueriesAreNeverShed) {
  // Metered queries were deliberately spent; the watermark must not touch
  // them even at absurd depth (watermark 1 sheds every offline query).
  ae::EnvServiceOptions options;
  options.threads = 2;
  options.shed_watermark = 1;
  ae::EnvService service(options);
  const auto real = service.add_real_network();

  const auto result = service.run(query(real, 9, ae::QueryPriority::kSpeculative));
  EXPECT_FALSE(result.is_rejected());
  EXPECT_EQ(service.backend_stats(real).shedded, 0u);
}

// ---- deadlines -------------------------------------------------------------

TEST(OverloadDeadlines, QueueWaitPastDeadlineRejectsBeforeExecution) {
  // One pool thread, held by a gated query: anything submitted behind it
  // waits in the queue. A 1 ms deadline + a 15 ms hold is deterministic —
  // the waiter cannot start before the gate opens.
  ae::EnvServiceOptions options;
  options.threads = 1;
  ae::EnvService service(options);
  const auto gated_backend = std::make_shared<GatedBackend>();
  const auto gate = service.register_backend(gated_backend);
  const auto sim = service.add_simulator();

  auto blocker = service.submit(query(gate, 1));
  while (gated_backend->started() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  auto doomed_query = query(sim, 77);
  doomed_query.deadline_ms = 1.0;
  auto doomed = service.submit(doomed_query);

  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  gated_backend->release();
  (void)blocker.get();

  const auto result = doomed.get();
  EXPECT_TRUE(result.is_rejected());
  EXPECT_EQ(result.rejected, ae::RejectReason::kDeadlineExceeded);

  const auto stats = service.backend_stats(sim);
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(stats.episodes, 0u);  // never executed
  EXPECT_EQ(service.stats().deadline_rejected, 1u);
  EXPECT_EQ(service.outstanding_queries(), 0u);

  // The same query with a sane budget runs normally.
  auto fine_query = query(sim, 77);
  fine_query.deadline_ms = 60000.0;
  EXPECT_FALSE(service.run(fine_query).is_rejected());
}

TEST(OverloadDeadlines, ZeroDeadlineMeansNoDeadline) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 1});
  const auto sim = service.add_simulator();
  auto q = query(sim, 3);
  q.deadline_ms = 0.0;  // the default: existing callers see no change
  EXPECT_FALSE(service.run(q).is_rejected());
  EXPECT_EQ(service.backend_stats(sim).deadline_rejected, 0u);
}

TEST(OverloadDeadlines, ShedAndDeadlineRejectionsStayInTheirOwnTotals) {
  // Regression: stats() once folded rejected() (= shedded +
  // deadline_rejected) into a second shed total, so every deadline
  // rejection was double-reported as a shed. Each rejection must appear
  // exactly once, under its own name.
  ae::EnvServiceOptions options;
  options.threads = 1;
  options.shed_watermark = 2;
  ae::EnvService service(options);
  const auto gated_backend = std::make_shared<GatedBackend>();
  const auto gate = service.register_backend(gated_backend);
  const auto sim = service.add_simulator();

  auto blocker = service.submit(query(gate, 1));
  while (gated_backend->started() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Depth 2 >= soft(2): one speculative shed.
  EXPECT_EQ(service.run(query(sim, 10, ae::QueryPriority::kSpeculative)).rejected,
            ae::RejectReason::kShedded);
  // One deadline rejection: queued behind the gate with a 1 ms budget.
  auto doomed_query = query(sim, 11);
  doomed_query.deadline_ms = 1.0;
  auto doomed = service.submit(doomed_query);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  gated_backend->release();
  (void)blocker.get();
  EXPECT_EQ(doomed.get().rejected, ae::RejectReason::kDeadlineExceeded);

  const auto stats = service.stats();
  EXPECT_EQ(stats.shed_total, 1u);
  EXPECT_EQ(stats.deadline_rejected, 1u) << "a deadline rejection is not a shed";
  std::uint64_t rejected_sum = 0;
  for (const auto& b : stats.backends) rejected_sum += b.rejected();
  EXPECT_EQ(rejected_sum, stats.shed_total + stats.deadline_rejected + stats.cancelled_total);
}

// ---- hedged dispatch -------------------------------------------------------

TEST(OverloadHedging, SlowPrimaryIsHedgedAndTheLoserCancelled) {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 5.0;  // no RTT samples yet: hedge after 5 ms
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge, ae::BreakerPolicy{});
  backend.add_replica(std::make_shared<ParkedBackend>(), 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), 5.0);

  // Round-robin starts at replica 0 (the parked one). It outlives the hedge
  // delay, the secondary answers, the primary is cancelled — and a
  // cancellation is NOT a fault: breakers stay closed, nothing redispatched.
  const auto result = backend.execute(query(0, 11));
  ASSERT_EQ(result.latencies_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(result.latencies_ms[0], 2.0);  // the secondary's tag

  EXPECT_EQ(farm->hedges.load(), 1u);
  EXPECT_EQ(farm->hedge_wins.load(), 1u);
  EXPECT_EQ(farm->episodes_redispatched.load(), 0u);
  EXPECT_EQ(farm->breaker_trips.load(), 0u);
  EXPECT_EQ(backend.breaker_state(0), 0);  // closed
  EXPECT_EQ(backend.breaker_state(1), 0);
}

namespace {

/// Replica fake with a caller-scripted RTT distribution: hedge_delay_ms()
/// learns its quantile from fill_stats, so the test controls exactly what
/// the hedge policy believes the farm's RTT regime is.
class ScriptedRttBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override { return {}; }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  void fill_stats(ae::BackendStats& stats) const override { stats.rpc_rtt_ns.merge(rtt_); }

  void record_rtt_ms(double ms, std::uint64_t samples) {
    rtt_.record(static_cast<std::uint64_t>(ms * 1e6), samples);
  }

 private:
  std::string name_ = "scripted-rtt";
  atlas::telemetry::HistogramData rtt_;
};

}  // namespace

TEST(OverloadHedging, IdleFarmRefreshesAStaleHedgeDelayByWallClock) {
  // Regression: the hedge delay cache refreshed only every 64th CALL, so a
  // farm that idled across an RTT regime change kept hedging (or not) on the
  // pre-idle quantile for up to 63 post-idle episodes — exactly when the
  // regime is most likely to have shifted. Wall-clock staleness is now the
  // primary trigger: the first call after an idle period must recompute.
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 5.0;
  hedge.min_samples = 4;
  hedge.refresh_interval_ms = 20.0;  // "idle" is cheap to reach in a test
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge, ae::BreakerPolicy{});
  const auto replica = std::make_shared<ScriptedRttBackend>();
  backend.add_replica(replica, 0, serving_health());

  // Call 0 (call-count trigger): no RTT samples yet -> the fallback delay.
  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), 5.0);

  // The farm observes genuinely slow episodes, then goes idle.
  replica->record_rtt_ms(80.0, 8);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));

  // First post-idle call: 1 % 64 != 0, so the old call-count-only cadence
  // would have served the stale 5 ms fallback. The wall-clock trigger must
  // recompute from the recorded distribution instead.
  const double refreshed = backend.hedge_delay_ms();
  EXPECT_GT(refreshed, 50.0) << "first post-idle hedge delay must reflect the slow RTTs";
  EXPECT_LE(refreshed, hedge.max_delay_ms);

  // Within the staleness window the cache serves without rescanning: the
  // regime shifts again but the interval has not elapsed and the call count
  // has not rolled over, so the cached value holds (cheap steady-state path).
  replica->record_rtt_ms(1.0, 1024);
  EXPECT_DOUBLE_EQ(backend.hedge_delay_ms(), refreshed);
}

TEST(OverloadHedging, FastPrimaryNeverHedges) {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.fallback_delay_ms = 200.0;  // far longer than an instant reply
  ae::FailoverBackend backend(sim_descriptor(), farm, hedge, ae::BreakerPolicy{});
  backend.add_replica(std::make_shared<TaggedBackend>(1.0), 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_FALSE(backend.execute(query(0, seed)).is_rejected());
  }
  EXPECT_EQ(farm->hedges.load(), 0u);
  EXPECT_EQ(farm->hedge_wins.load(), 0u);
}

// ---- circuit breakers ------------------------------------------------------

namespace {

struct BreakerOutcome {
  std::uint64_t trips = 0;
  std::uint64_t redispatched = 0;
  int primary_calls = 0;
  int primary_state = -2;
  int secondary_state = -2;
  std::size_t completed = 0;

  bool operator==(const BreakerOutcome&) const = default;
};

/// One full breaker scenario: a dead-on-arrival primary behind a healthy
/// secondary, hedging off, cooldown far past the test horizon (no half-open
/// nondeterminism). Returns every observable counter so the reproducibility
/// test can compare two runs wholesale.
BreakerOutcome run_breaker_scenario() {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::BreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown_ms = 60000.0;
  ae::FailoverBackend backend(sim_descriptor(), farm, ae::HedgePolicy{}, breaker);
  const auto failing = std::make_shared<FailingBackend>();
  backend.add_replica(failing, 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  BreakerOutcome outcome;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto result = backend.execute(query(0, seed));
    if (result.latencies_ms.size() == 1 && result.latencies_ms[0] == 2.0) ++outcome.completed;
  }
  outcome.trips = farm->breaker_trips.load();
  outcome.redispatched = farm->episodes_redispatched.load();
  outcome.primary_calls = failing->calls();
  outcome.primary_state = backend.breaker_state(0);
  outcome.secondary_state = backend.breaker_state(1);
  return outcome;
}

}  // namespace

TEST(OverloadBreakers, ConsecutiveFailuresOpenTheBreakerAndTrafficRoutesAround) {
  const auto outcome = run_breaker_scenario();

  // Round-robin alternates which replica leads. The primary leads on calls
  // 1/3/5 and fails each time; the third failure trips the breaker open, and
  // from then on candidate selection skips it entirely.
  EXPECT_EQ(outcome.completed, 10u);      // every episode still succeeded
  EXPECT_EQ(outcome.trips, 1u);           // opened exactly once
  EXPECT_EQ(outcome.primary_calls, 3);    // never probed again (cooldown 60 s)
  EXPECT_EQ(outcome.redispatched, 3u);    // one redispatch per primary failure
  EXPECT_EQ(outcome.primary_state, 1);    // open
  EXPECT_EQ(outcome.secondary_state, 0);  // closed
}

TEST(OverloadBreakers, HalfOpenProbeClosesTheBreakerOnSuccess) {
  const auto farm = std::make_shared<ae::FarmState>();
  ae::BreakerPolicy breaker;
  breaker.failure_threshold = 1;  // one failure trips it
  breaker.cooldown_ms = 5.0;      // probe slot arms quickly
  ae::FailoverBackend backend(sim_descriptor(), farm, ae::HedgePolicy{}, breaker);

  // The "flaky" primary: fails once, then recovers. Modeled as a replica
  // whose health cell we leave serving while the breaker does the shunning.
  class RecoveringBackend final : public ae::EnvBackend {
   public:
    ae::EpisodeResult execute(const ae::EnvQuery&) const override {
      if (calls_.fetch_add(1, std::memory_order_relaxed) == 0) {
        throw std::runtime_error("transient failure");
      }
      ae::EpisodeResult result;
      result.latencies_ms = {1.0};
      return result;
    }
    ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
    const std::string& name() const noexcept override { return name_; }

   private:
    std::string name_ = "recovering";
    mutable std::atomic<int> calls_{0};
  };
  backend.add_replica(std::make_shared<RecoveringBackend>(), 0, serving_health());
  backend.add_replica(std::make_shared<TaggedBackend>(2.0), 1, serving_health());

  (void)backend.execute(query(0, 1));  // primary fails -> trips -> secondary answers
  ASSERT_EQ(backend.breaker_state(0), 1);
  EXPECT_EQ(farm->breaker_trips.load(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // cooldown elapses

  // Round-robin leads with the SECONDARY on this call, so replica 0 merely
  // wins the half-open CAS (it becomes a candidate, but the secondary
  // answers first and its probe never runs — the claimed-probe case).
  (void)backend.execute(query(0, 2));
  EXPECT_EQ(backend.breaker_state(0), 2);  // half-open, probe still owed

  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // probe window re-arms

  // Now replica 0 leads: the stale half-open cell re-arms, the probe
  // actually executes, succeeds, and the breaker closes.
  (void)backend.execute(query(0, 3));
  EXPECT_EQ(backend.breaker_state(0), 0);
  EXPECT_EQ(farm->breaker_trips.load(), 1u);  // recovery is not another trip
}

// ---- golden guard: idle features change nothing ----------------------------

namespace {

/// FNV-1a over the result's raw f64/u64 bit patterns (same construction as
/// the golden_episode suite): a single-ULP drift anywhere flips the hash.
std::uint64_t hash_result(const ae::EpisodeResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto add_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  add_u64(static_cast<std::uint64_t>(r.rejected));
  add_u64(r.frames_completed);
  add_u64(static_cast<std::uint64_t>(r.ul_tb_total));
  add_u64(static_cast<std::uint64_t>(r.ul_tb_err));
  add_u64(static_cast<std::uint64_t>(r.dl_tb_total));
  add_u64(static_cast<std::uint64_t>(r.dl_tb_err));
  for (const double latency : r.latencies_ms) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &latency, sizeof(bits));
    add_u64(bits);
  }
  return h;
}

std::vector<ae::EnvQuery> golden_queries(ae::BackendId backend) {
  std::vector<ae::EnvQuery> queries;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ae::EnvQuery q = query(backend, seed);
    q.config.bandwidth_ul = 5.0 + 4.0 * static_cast<double>(seed);
    q.config.cpu_ratio = 0.1 * static_cast<double>(seed % 9);
    queries.push_back(q);
  }
  return queries;
}

}  // namespace

TEST(OverloadGolden, IdleFeaturesLeaveEpisodeResultsBitIdentical) {
  // The whole overload layer — watermarks armed, deadlines stamped, hedging
  // and breakers enabled — must be invisible when nothing triggers: every
  // result bit-identical to a plain service's. This is the guard that lets
  // deployments enable the features without re-validating their science.

  // Baseline: a bare service, no overload features.
  std::vector<std::uint64_t> baseline;
  {
    ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
    const auto sim = service.add_simulator();
    for (const auto& q : golden_queries(sim)) baseline.push_back(hash_result(service.run(q)));
  }

  // Armed-but-idle watermarks + generous deadlines on every query.
  {
    ae::EnvServiceOptions options;
    options.threads = 2;
    options.shed_watermark = 1000;  // never reached by 8 sequential queries
    ae::EnvService service(options);
    const auto sim = service.add_simulator();
    std::size_t i = 0;
    for (auto q : golden_queries(sim)) {
      q.deadline_ms = 60000.0;
      q.priority = (i % 2 == 0) ? ae::QueryPriority::kSpeculative : ae::QueryPriority::kNormal;
      EXPECT_EQ(hash_result(service.run(q)), baseline[i]) << "query " << i;
      ++i;
    }
  }

  // Hedging + breakers over two healthy same-params replicas: episodes are
  // deterministic per seed, so WHICH replica answers cannot matter, and a
  // hedge delay far past a local episode's runtime means none ever fires.
  {
    const auto farm = std::make_shared<ae::FarmState>();
    ae::HedgePolicy hedge;
    hedge.enabled = true;
    hedge.fallback_delay_ms = 1000.0;
    ae::FailoverBackend failover(sim_descriptor(), farm, hedge, ae::BreakerPolicy{});
    const auto make_sim = [] {
      return std::make_shared<ae::LocalBackend>(std::make_shared<ae::Simulator>(), "sim-0",
                                                ae::BackendKind::kOffline);
    };
    failover.add_replica(make_sim(), 0, serving_health());
    failover.add_replica(make_sim(), 1, serving_health());

    std::size_t i = 0;
    for (const auto& q : golden_queries(0)) {
      EXPECT_EQ(hash_result(failover.execute(q)), baseline[i]) << "query " << i;
      ++i;
    }
    EXPECT_EQ(farm->hedges.load(), 0u);
    EXPECT_EQ(farm->breaker_trips.load(), 0u);
  }
}

// ---- same-seed reproducibility (the chaos acceptance bar) ------------------

TEST(ChaosReproducibility, BreakerScenarioProducesIdenticalCountersTwice) {
  const auto first = run_breaker_scenario();
  const auto second = run_breaker_scenario();
  EXPECT_EQ(first, second);
}

TEST(ChaosReproducibility, FaultedServiceRunsProduceIdenticalOutcomes) {
  // End to end: an EnvService fronting a fault-injected simulator. Which
  // queries fail is a pure function of (plan seed, workload seed), so two
  // fresh same-seed services agree on the exact failure set and counters —
  // across different thread pools and interleavings.
  const auto run_once = [](std::set<std::uint64_t>& failed_seeds) {
    const auto injector =
        std::make_shared<ae::FaultInjector>(ae::FaultPlan::parse("error=0.3", 77));
    ae::EnvServiceOptions options;
    options.threads = 4;
    ae::EnvService service(options);
    const auto faulty = service.register_backend(std::make_shared<ae::FaultInjectingBackend>(
        std::make_shared<ae::LocalBackend>(std::make_shared<ae::Simulator>(), "sim-0",
                                           ae::BackendKind::kOffline),
        injector));
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      try {
        (void)service.run(query(faulty, seed));
      } catch (const ae::FaultInjectedError&) {
        failed_seeds.insert(seed);
      }
    }
    return injector->counters().errors;
  };

  std::set<std::uint64_t> first_failed;
  std::set<std::uint64_t> second_failed;
  const auto first_errors = run_once(first_failed);
  const auto second_errors = run_once(second_failed);

  EXPECT_FALSE(first_failed.empty());             // the plan actually bites
  EXPECT_LT(first_failed.size(), 60u);            // ...but not everything
  EXPECT_EQ(first_failed, second_failed);         // identical failure SET
  EXPECT_EQ(first_errors, second_errors);         // identical injector counters
  EXPECT_EQ(first_errors, first_failed.size());
}
