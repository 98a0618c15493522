#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"
#include "atlas/pipeline.hpp"

namespace ac = atlas::core;
namespace ae = atlas::env;

namespace {

ac::PipelineOptions tiny_pipeline() {
  ac::PipelineOptions po;
  po.stage1.iterations = 8;
  po.stage1.init_iterations = 3;
  po.stage1.parallel = 3;
  po.stage1.candidates = 150;
  po.stage1.real_episodes = 1;
  po.stage1.workload.duration_ms = 4000.0;
  po.stage1.bnn.sizes = {7, 16, 16, 1};
  po.stage1.train_epochs = 2;
  po.stage2.iterations = 10;
  po.stage2.init_iterations = 4;
  po.stage2.parallel = 3;
  po.stage2.candidates = 200;
  po.stage2.workload.duration_ms = 4000.0;
  po.stage2.bnn.sizes = {8, 16, 16, 1};
  po.stage2.train_epochs = 2;
  po.stage3.iterations = 5;
  po.stage3.inner_updates = 2;
  po.stage3.candidates = 150;
  po.stage3.workload.duration_ms = 4000.0;
  return po;
}

/// A registered backend the pipeline never queries, reporting a lifetime
/// reconnect count the way a long-lived remote backend would.
class ReconnectedBackend final : public ae::EnvBackend {
 public:
  ae::EpisodeResult execute(const ae::EnvQuery&) const override {
    throw std::logic_error("ReconnectedBackend is never queried");
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  void fill_stats(ae::BackendStats& stats) const override { stats.rpc_reconnects = 5; }

 private:
  std::string name_ = "reconnected";
};

}  // namespace

TEST(Pipeline, FullRunProducesAllTraces) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  ac::AtlasPipeline pipeline(service, real, tiny_pipeline());
  const auto result = pipeline.run();
  EXPECT_FALSE(result.calibration.history.empty());
  EXPECT_FALSE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
  // The calibrated simulator must not be worse than the original.
  EXPECT_LE(result.calibration.best_kl, result.calibration.original_kl);
  // EnvService accounting is observable from the result: the only metered
  // interactions are D_r collection (1 episode) plus stage 3's loop.
  EXPECT_EQ(result.env_stats.online_queries, 1u + result.online.history.size());
  EXPECT_GT(result.env_stats.offline_queries, 0u);
}

TEST(Pipeline, RepeatedRunsReportPerRunStats) {
  // Pipelines share long-lived services; env_stats must cover one run only.
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;
  po.run_stage2 = false;  // keep the re-run cheap: stage 3 only (kGpWhole)
  ac::AtlasPipeline pipeline(service, real, po);
  const auto first = pipeline.run();
  const auto second = pipeline.run();
  EXPECT_EQ(first.env_stats.online_queries, first.online.history.size());
  EXPECT_EQ(second.env_stats.online_queries, second.online.history.size());
}

TEST(Pipeline, RunOnALongLivedFarmReportsDeltasNotLifetimeTotals) {
  // Regression: the per-run delta once skipped rpc_reconnects and every
  // farm counter, so a run on a long-lived farm reported lifetime totals
  // beside per-run deltas.
  ae::ShardRouter router(2, ae::EnvServiceOptions{.threads = 2});
  const auto real = router.add_real_network();
  const auto reconnected = router.register_backend(std::make_shared<ReconnectedBackend>());
  auto farm = std::make_shared<ae::FarmState>();
  farm->hedges = 4;
  farm->episodes_redispatched = 3;
  farm->workers_serving = 2;
  farm->workers_suspect = 1;
  router.attach_farm(farm);

  auto po = tiny_pipeline();
  po.run_stage1 = false;
  po.run_stage2 = false;  // stage 3 only (kGpWhole): cheap, and no farm activity
  ac::AtlasPipeline pipeline(router, real, po);
  const auto result = pipeline.run();
  const ae::EnvServiceStats& stats = result.env_stats;
  EXPECT_EQ(stats.online_queries, po.stage3.iterations);
  EXPECT_EQ(stats.backends.at(reconnected).rpc_reconnects, 0u);
  EXPECT_EQ(stats.farm.hedges, 0u);
  EXPECT_EQ(stats.farm.episodes_redispatched, 0u);
  // Gauges are levels, not activity: they pass through undifferenced.
  EXPECT_EQ(stats.farm.workers_serving, 2u);
  EXPECT_EQ(stats.farm.workers_suspect, 1u);
}

TEST(Pipeline, ProgressCallbackSeesEveryStage) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;  // skipped stages emit a single skipped event
  ac::AtlasPipeline pipeline(service, real, po);
  std::vector<ac::PipelineProgress> events;
  pipeline.run([&](const ac::PipelineProgress& p) { events.push_back(p); });
  // stage1 skipped (1 event) + stage2 start/finish + stage3 start/finish.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].stage, ac::PipelineStage::kCalibration);
  EXPECT_TRUE(events[0].skipped);
  EXPECT_EQ(events[1].stage, ac::PipelineStage::kOfflineTraining);
  EXPECT_FALSE(events[1].finished);
  EXPECT_TRUE(events[2].finished);
  EXPECT_EQ(events[3].stage, ac::PipelineStage::kOnlineLearning);
  // Online exposure only accumulates once stage 3 runs.
  EXPECT_EQ(events[3].env_stats.online_queries, 0u);
  EXPECT_EQ(events[4].env_stats.online_queries, po.stage3.iterations);
}

TEST(Pipeline, NoStage1SkipsCalibration) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage1 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  EXPECT_TRUE(result.calibration.history.empty());
  EXPECT_FALSE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
}

TEST(Pipeline, NoStage2UsesGpWholeOnline) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage2 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  EXPECT_TRUE(result.offline.history.empty());
  EXPECT_EQ(result.online.history.size(), 5u);
}

TEST(Pipeline, NoStage3RepeatsOfflineOptimum) {
  ae::EnvService service(ae::EnvServiceOptions{.threads = 2});
  const auto real = service.add_real_network();
  auto po = tiny_pipeline();
  po.run_stage3 = false;
  ac::AtlasPipeline pipeline(service, real, po);
  const auto result = pipeline.run();
  ASSERT_EQ(result.online.history.size(), po.stage3.iterations);
  const auto expected = result.offline.policy.best_config.to_vec();
  for (const auto& step : result.online.history) {
    const auto got = step.config.to_vec();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i], expected[i]);
    }
  }
}
