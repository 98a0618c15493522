#include "atlas/pipeline.hpp"

#include "common/log.hpp"

namespace atlas::core {

AtlasPipeline::AtlasPipeline(env::EnvClient& service, env::BackendId real,
                             PipelineOptions options)
    : service_(service), real_(real), options_(std::move(options)) {
  if (options_.seed_plan) {
    options_.stage1.seed_plan = *options_.seed_plan;
    options_.stage2.seed_plan = *options_.seed_plan;
    options_.stage3.seed_plan = *options_.seed_plan;
  }
  if (options_.speculate_top_k) {
    options_.stage2.speculate_top_k = *options_.speculate_top_k;
    options_.stage3.speculate_top_k = *options_.speculate_top_k;
  }
}

PipelineResult AtlasPipeline::run(const PipelineCallback& progress) {
  PipelineResult result;
  const env::EnvServiceStats start_stats = service_.stats();

  auto emit = [&](PipelineStage stage, bool finished, bool skipped) {
    if (!progress) return;
    PipelineProgress event;
    event.stage = stage;
    event.finished = finished;
    event.skipped = skipped;
    event.env_stats = service_.stats().since(start_stats);
    progress(event);
  };
  auto stage_scope = [&](PipelineStage stage, bool enabled, auto&& body) {
    if (!enabled) {
      emit(stage, /*finished=*/true, /*skipped=*/true);
      return;
    }
    emit(stage, /*finished=*/false, /*skipped=*/false);
    body();
    emit(stage, /*finished=*/true, /*skipped=*/false);
  };

  // ---- Stage 1: learning-based simulator -----------------------------------
  env::SimParams sim_params = env::SimParams::defaults();
  stage_scope(PipelineStage::kCalibration, options_.run_stage1, [&] {
    SimCalibrator calibrator(service_, real_, options_.stage1);
    result.calibration = calibrator.calibrate();
    sim_params = result.calibration.best_params;
    common::log_info("pipeline: stage 1 done, kl ", result.calibration.original_kl, " -> ",
                     result.calibration.best_kl);
  });
  const env::BackendId augmented = service_.add_simulator(sim_params, "augmented-sim");

  // ---- Stage 2: offline training --------------------------------------------
  const OfflinePolicy* policy = nullptr;
  stage_scope(PipelineStage::kOfflineTraining, options_.run_stage2, [&] {
    OfflineTrainer trainer(service_, augmented, options_.stage2);
    result.offline = trainer.train();
    policy = &result.offline.policy;
    common::log_info("pipeline: stage 2 done, best usage ", result.offline.policy.best_usage,
                     " qoe ", result.offline.policy.best_qoe);
  });

  // ---- Stage 3: online learning ---------------------------------------------
  OnlineOptions stage3 = options_.stage3;
  if (!options_.run_stage2) stage3.model = OnlineModel::kGpWhole;
  if (options_.run_stage3) {
    stage_scope(PipelineStage::kOnlineLearning, true, [&] {
      OnlineLearner learner(policy, service_, augmented, real_, stage3);
      result.online = learner.learn();
    });
  } else {
    // "No stage 3": keep applying the offline optimum and just observe.
    // These observations are still metered real interactions, so the skipped
    // event is emitted AFTER the loop — its env_stats include the exposure.
    if (policy != nullptr) {
      const env::SeedStream seeds = env::SeedPlan(stage3.seed, stage3.seed_plan)
                                        .stream(env::SeedDomain::kStage3RealOnline, 1);
      for (std::size_t i = 0; i < stage3.iterations; ++i) {
        env::Workload wl = stage3.workload;
        wl.seed = seeds.seed(i, 0);
        OnlineStep step;
        step.config = policy->best_config;
        step.usage = policy->best_config.resource_usage();
        step.qoe_real =
            service_.measure_qoe(real_, policy->best_config, wl, stage3.sla.latency_threshold_ms);
        step.qoe_sim = policy->best_qoe;
        result.online.history.push_back(step);
      }
    }
    emit(PipelineStage::kOnlineLearning, /*finished=*/true, /*skipped=*/true);
  }

  result.env_stats = service_.stats().since(start_stats);
  return result;
}

}  // namespace atlas::core
