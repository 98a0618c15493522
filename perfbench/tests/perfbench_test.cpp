// Self-tests of the benchmark's own code: the forwarding client forwards
// every EnvClient virtual (so traced and untraced runs take the same
// speculation and cancellation decisions), and the load generator is a
// deterministic function of its seed with the intended mix.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "env/env_service.hpp"
#include "env/speculation.hpp"
#include "forwarding.hpp"
#include "generator.hpp"
#include "pipeline_phase.hpp"

namespace perfbench {
namespace {

/// Records which virtual was called; returns recognisable values.
class RecordingClient final : public env::EnvClient {
 public:
  mutable std::map<std::string, int> calls;
  std::shared_ptr<const env::EnvBackend> registered;
  std::shared_ptr<const env::SpeculationState> speculation;
  std::shared_ptr<const env::CancelToken> cancel;
  std::size_t outstanding = 0;
  std::string name = "recorded";

  using env::EnvClient::register_backend;
  env::BackendId register_backend(std::shared_ptr<const env::EnvBackend> backend) override {
    ++calls["register_backend"];
    registered = std::move(backend);
    return 41;
  }
  std::size_t backend_count() const override { return note("backend_count", 3); }
  const std::string& backend_name(env::BackendId) const override {
    note("backend_name", 0);
    return name;
  }
  env::BackendKind backend_kind(env::BackendId) const override {
    note("backend_kind", 0);
    return env::BackendKind::kOnline;
  }
  using env::EnvClient::run;
  env::EpisodeResult run(const env::EnvQuery&) override {
    ++calls["run"];
    env::EpisodeResult r;
    r.frames_completed = 5;
    return r;
  }
  env::QueryHandle submit(env::EnvQuery) override {
    ++calls["submit"];
    return {};
  }
  env::QueryHandle submit_cancellable(env::EnvQuery,
                                      std::shared_ptr<const env::CancelToken> token) override {
    ++calls["submit_cancellable"];
    cancel = std::move(token);
    return {};
  }
  std::vector<env::EpisodeResult> run_batch(std::span<const env::EnvQuery> queries) override {
    ++calls["run_batch"];
    return std::vector<env::EpisodeResult>(queries.size());
  }
  env::BackendStats backend_stats(env::BackendId) const override {
    note("backend_stats", 0);
    env::BackendStats s;
    s.queries = 9;
    return s;
  }
  env::EnvServiceStats stats() const override {
    note("stats", 0);
    env::EnvServiceStats s;
    s.online_queries = 11;
    return s;
  }
  void reset_stats() override { ++calls["reset_stats"]; }
  std::size_t outstanding_queries() const override {
    return note("outstanding_queries", outstanding);
  }
  void attach_speculation(std::shared_ptr<const env::SpeculationState> state) override {
    ++calls["attach_speculation"];
    speculation = std::move(state);
  }
  std::size_t cache_size() const override { return note("cache_size", 13); }
  void clear_cache() override { ++calls["clear_cache"]; }

 private:
  std::size_t note(const char* what, std::size_t value) const {
    ++calls[what];
    return value;
  }
};

/// A backend that overrides every EnvBackend virtual with a distinct answer.
class MarkedBackend final : public env::EnvBackend {
 public:
  mutable int executes = 0;
  mutable int cancellable = 0;
  mutable int resets = 0;
  env::EpisodeResult execute(const env::EnvQuery&) const override {
    ++executes;
    env::EpisodeResult r;
    r.frames_completed = 3;
    return r;
  }
  env::EpisodeResult execute_cancellable(const env::EnvQuery&,
                                         const env::CancelToken&) const override {
    ++cancellable;
    return {};
  }
  env::BackendKind kind() const noexcept override { return env::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  double cost_hint() const noexcept override { return 7.5; }
  bool accepts_sim_params() const noexcept override { return true; }
  void fill_stats(env::BackendStats& stats) const override {
    stats.rpc_retries = 4;
  }
  void reset_stats() const override { ++resets; }

 private:
  std::string name_ = "marked";
};

TEST(TracingClient, ForwardsEveryClientVirtual) {
  RecordingClient inner;
  inner.outstanding = 6;
  TracingClient client(inner);

  EXPECT_EQ(client.register_backend(std::make_shared<MarkedBackend>()), 41u);
  EXPECT_EQ(client.backend_count(), 3u);
  EXPECT_EQ(client.backend_name(0), "recorded");
  EXPECT_EQ(client.backend_kind(0), env::BackendKind::kOnline);
  EXPECT_EQ(client.run(env::EnvQuery{}).frames_completed, 5u);
  client.submit(env::EnvQuery{});
  auto token = std::make_shared<const env::CancelToken>(false);
  client.submit_cancellable(env::EnvQuery{}, token);
  EXPECT_EQ(inner.cancel, token);
  const std::vector<env::EnvQuery> batch(2);
  EXPECT_EQ(client.run_batch(batch).size(), 2u);
  EXPECT_EQ(client.backend_stats(0).queries, 9u);
  EXPECT_EQ(client.stats().online_queries, 11u);
  client.reset_stats();
  EXPECT_EQ(client.outstanding_queries(), 6u);
  auto state = std::make_shared<const env::SpeculationState>();
  client.attach_speculation(state);
  EXPECT_EQ(inner.speculation, state);
  EXPECT_EQ(client.cache_size(), 13u);
  client.clear_cache();

  for (const char* virt :
       {"register_backend", "backend_count", "backend_name", "backend_kind", "run", "submit",
        "submit_cancellable", "run_batch", "backend_stats", "stats", "reset_stats",
        "outstanding_queries", "attach_speculation", "cache_size", "clear_cache"}) {
    EXPECT_EQ(inner.calls[virt], 1) << virt;
  }
  // The submit timer saw both enqueue paths.
  EXPECT_EQ(client.submit_ns().snapshot().count(), 2u);
}

TEST(TracingClient, WrapsBackendsInForwardingTimer) {
  RecordingClient inner;
  TracingClient client(inner);
  auto marked = std::make_shared<MarkedBackend>();
  client.register_backend(marked);
  ASSERT_NE(inner.registered, nullptr);
  ASSERT_NE(inner.registered.get(), marked.get());  // wrapped, not passed through
  const env::EnvBackend& timed = *inner.registered;
  EXPECT_EQ(timed.kind(), env::BackendKind::kOffline);
  EXPECT_EQ(timed.name(), "marked");
  EXPECT_EQ(timed.cost_hint(), 7.5);
  EXPECT_TRUE(timed.accepts_sim_params());
  env::BackendStats stats;
  timed.fill_stats(stats);
  EXPECT_EQ(stats.rpc_retries, 4u);
  timed.reset_stats();
  EXPECT_EQ(marked->resets, 1);
  EXPECT_EQ(timed.execute(env::EnvQuery{}).frames_completed, 3u);
  const env::CancelToken cancel{false};
  timed.execute_cancellable(env::EnvQuery{}, cancel);
  EXPECT_EQ(marked->executes, 1);
  EXPECT_EQ(marked->cancellable, 1);
  const ExecTimes& times = client.exec(env::BackendKind::kOffline);
  EXPECT_EQ(times.episodes.load(), 2u);
  EXPECT_EQ(times.frames.load(), 3u);
  EXPECT_EQ(times.exec_ns.snapshot().count(), 2u);
}

TEST(TracingClient, SpeculationSeesTheInnerQueueDepth) {
  // The prefetch budget reads outstanding_queries(): through the wrapper it
  // must see the real service's depth, not EnvClient's default 0.
  RecordingClient inner;
  TracingClient client(inner);
  inner.outstanding = 1000;
  env::SpeculationPlanner busy(client, env::SpeculationOptions{.top_k = 2});
  EXPECT_EQ(busy.budget(), 0u);
  EXPECT_EQ(inner.speculation, busy.state());
  inner.outstanding = 0;
  env::SpeculationPlanner idle(client, env::SpeculationOptions{.top_k = 2});
  EXPECT_EQ(idle.budget(), 2u);
}

TEST(TracingClient, TracedPipelineMatchesUntraced) {
  // Small budgets of the crn-bg16 shape: CRN seeds, speculation on.
  PipelineShape shape{.episode_ms = 2000.0, .extra_users = 4, .crn = true, .speculate_top_k = 2};
  core::PipelineOptions options = pipeline_options(shape, 5);
  options.stage1.iterations = 4;
  options.stage1.init_iterations = 2;
  options.stage1.candidates = 50;
  options.stage2.iterations = 5;
  options.stage2.init_iterations = 2;
  options.stage2.candidates = 60;
  options.stage3.iterations = 3;
  options.stage3.candidates = 60;
  const auto hash = [&](bool traced) {
    env::EnvService service(env::EnvServiceOptions{.threads = 2});
    TracingClient tracer(service);
    env::EnvClient& client = traced ? static_cast<env::EnvClient&>(tracer) : service;
    const env::BackendId real = client.add_real_network();
    core::AtlasPipeline pipeline(client, real, options);
    const core::PipelineResult result = pipeline.run();
    if (traced) {
      EXPECT_GT(tracer.exec(env::BackendKind::kOffline).episodes.load(), 0u);
      EXPECT_EQ(tracer.exec(env::BackendKind::kOnline).episodes.load(),
                result.env_stats.online_queries);
    }
    return hash_histories(result);
  };
  EXPECT_EQ(hash(false), hash(true));
}

// ---- generator ---------------------------------------------------------------------

PlanOptions plan_options(std::uint64_t seed) {
  PlanOptions o;
  o.qps = 2000.0;
  o.duration_s = 10.0;
  o.seed = seed;
  o.offline_backend = 3;
  o.online_backend = 4;
  return o;
}

bool same_query(const env::EnvQuery& a, const env::EnvQuery& b) {
  const auto bits = [](double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  const std::vector<double> ca = a.config.to_vec();
  const std::vector<double> cb = b.config.to_vec();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (bits(ca[i]) != bits(cb[i])) return false;
  }
  return a.backend == b.backend && a.crn == b.crn && a.priority == b.priority &&
         bits(a.deadline_ms) == bits(b.deadline_ms) && a.sim_params.has_value() == b.sim_params.has_value() &&
         a.workload.traffic == b.workload.traffic &&
         bits(a.workload.duration_ms) == bits(b.workload.duration_ms) &&
         bits(a.workload.distance_m) == bits(b.workload.distance_m) &&
         a.workload.random_walk == b.workload.random_walk &&
         a.workload.extra_users == b.workload.extra_users &&
         a.workload.collect_traces == b.workload.collect_traces &&
         a.workload.seed == b.workload.seed;
}

bool same_plan(const Plan& a, const Plan& b) {
  if (a.events.size() != b.events.size()) return false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (std::memcmp(&a.events[i].arrival_s, &b.events[i].arrival_s, sizeof(double)) != 0 ||
        a.events[i].kind != b.events[i].kind ||
        !same_query(a.events[i].query, b.events[i].query)) {
      return false;
    }
  }
  return true;
}

TEST(Generator, SameSeedGivesIdenticalSchedule) {
  const Plan a = build_plan(plan_options(17));
  const Plan b = build_plan(plan_options(17));
  ASSERT_FALSE(a.events.empty());
  EXPECT_TRUE(same_plan(a, b));
}

TEST(Generator, DifferentSeedGivesDifferentSchedule) {
  const Plan a = build_plan(plan_options(17));
  const Plan b = build_plan(plan_options(18));
  EXPECT_FALSE(same_plan(a, b));
  // Arrival offsets and query contents both move, not just one of them.
  std::size_t same_arrival = 0;
  std::size_t same_seed = 0;
  for (std::size_t i = 0; i < std::min(a.events.size(), b.events.size()); ++i) {
    same_arrival += a.events[i].arrival_s == b.events[i].arrival_s;
    same_seed += a.events[i].query.workload.seed == b.events[i].query.workload.seed;
  }
  EXPECT_EQ(same_arrival, 0u);
  EXPECT_EQ(same_seed, 0u);
}

TEST(Generator, MixAndRateWithinSamplingError) {
  const PlanOptions o = plan_options(23);
  const Plan plan = build_plan(o);
  const double n = static_cast<double>(plan.events.size());
  const double expected_n = o.qps * o.duration_s;
  EXPECT_NEAR(n, expected_n, 4.0 * std::sqrt(expected_n));
  const double shares[kLoadKinds] = {kRevisitShare, kOnlineShare, kTraceShare,
                                     1.0 - kRevisitShare - kOnlineShare - kTraceShare};
  for (std::size_t k = 0; k < kLoadKinds; ++k) {
    const double p = shares[k];
    EXPECT_NEAR(static_cast<double>(plan.count[k]) / n, p, 4.0 * std::sqrt(p * (1 - p) / n))
        << to_string(static_cast<LoadKind>(k));
  }
  double last = 0.0;
  for (const PlanEvent& e : plan.events) {
    EXPECT_GE(e.arrival_s, last);
    last = e.arrival_s;
    EXPECT_EQ(e.query.backend, e.kind == LoadKind::kOnline ? 4u : 3u);
    EXPECT_EQ(e.query.workload.collect_traces, e.kind == LoadKind::kTrace);
    EXPECT_EQ(e.query.crn, e.kind == LoadKind::kRevisit);
  }
}

TEST(Generator, RevisitsRepeatIncumbentKeysAcrossPoints) {
  PlanOptions o = plan_options(29);
  const Plan first = build_plan(o);
  o.point = 1;
  const Plan second = build_plan(o);
  std::map<std::uint64_t, std::vector<double>> incumbents;
  for (const Plan* plan : {&first, &second}) {
    for (const PlanEvent& e : plan->events) {
      if (e.kind != LoadKind::kRevisit) continue;
      const auto [it, inserted] = incumbents.emplace(e.query.workload.seed, e.query.config.to_vec());
      EXPECT_EQ(it->second, e.query.config.to_vec());
    }
  }
  EXPECT_EQ(incumbents.size(), kIncumbents);
  // Fresh seeds never collide across points or with the incumbent pool.
  std::map<std::uint64_t, int> fresh;
  for (const Plan* plan : {&first, &second}) {
    for (const PlanEvent& e : plan->events) {
      if (e.kind == LoadKind::kRevisit) continue;
      EXPECT_EQ(incumbents.count(e.query.workload.seed), 0u);
      EXPECT_EQ(++fresh[e.query.workload.seed], 1);
    }
  }
}

}  // namespace
}  // namespace perfbench
