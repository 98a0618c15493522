#include "pipeline_phase.hpp"

#include <memory>

#include "env/env_service.hpp"
#include "fnv.hpp"
#include "forwarding.hpp"

namespace perfbench {

core::PipelineOptions pipeline_options(const PipelineShape& shape, std::uint64_t seed) {
  env::Workload workload;
  workload.duration_ms = shape.episode_ms;
  workload.extra_users = shape.extra_users;

  core::PipelineOptions options;
  options.stage1.iterations = kStageIterations[0];
  options.stage1.init_iterations = 12;
  options.stage1.parallel = 4;
  options.stage1.candidates = 600;
  options.stage1.workload = workload;
  options.stage1.seed = seed * 3 + 1;
  options.stage2.iterations = kStageIterations[1];
  options.stage2.init_iterations = 15;
  options.stage2.parallel = 4;
  options.stage2.candidates = 800;
  options.stage2.workload = workload;
  options.stage2.seed = seed * 3 + 2;
  options.stage3.iterations = kStageIterations[2];
  options.stage3.inner_updates = 5;
  options.stage3.candidates = 800;
  options.stage3.workload = workload;
  options.stage3.seed = seed * 3 + 3;
  if (shape.crn) {
    options.seed_plan = env::SeedPlanOptions{.policy = env::SeedPolicy::kCrn, .replicates = 4};
  }
  options.speculate_top_k = shape.speculate_top_k;
  return options;
}

std::uint64_t hash_histories(const core::PipelineResult& result) {
  Fnv f;
  for (const auto& s : result.calibration.history) {
    f.add(s.params.to_vec());
    f.add(s.kl);
    f.add(s.distance);
  }
  f.add(result.calibration.best_kl);
  for (const auto& s : result.offline.history) {
    f.add(s.config.to_vec());
    f.add(s.qoe);
    f.add(s.lambda);
  }
  f.add(result.offline.policy.final_lambda);
  for (const auto& s : result.online.history) {
    f.add(s.config.to_vec());
    f.add(s.qoe_real);
    f.add(s.qoe_sim);
    f.add(s.lambda);
    f.add(s.beta);
  }
  return f.h;
}

PipelineRun run_pipeline(const PipelineShape& shape, std::uint64_t seed, bool traced) {
  PipelineRun run;
  const core::PipelineOptions options = pipeline_options(shape, seed);

  env::EnvService service(env::EnvServiceOptions{.threads = kPoolThreads});
  std::unique_ptr<TracingClient> tracer;
  if (traced) tracer = std::make_unique<TracingClient>(service);
  env::EnvClient& client = traced ? static_cast<env::EnvClient&>(*tracer) : service;
  const env::BackendId real = client.add_real_network();

  std::array<std::uint64_t, 3> wall_start{};
  std::array<double, 3> cpu_start{};
  const auto on_progress = [&](const core::PipelineProgress& p) {
    const auto stage = static_cast<std::size_t>(p.stage);
    const double cpu = traced ? thread_cpu_s() : 0.0;
    const std::uint64_t t = now_ns();
    if (p.skipped) return;
    if (!p.finished) {
      wall_start[stage] = t;
      cpu_start[stage] = cpu;
    } else {
      run.wall_s[stage] = static_cast<double>(t - wall_start[stage]) * 1e-9;
      run.trace.cpu_s[stage] = cpu - cpu_start[stage];
    }
  };

  core::AtlasPipeline pipeline(client, real, options);
  const std::uint64_t start = now_ns();
  core::PipelineResult result = pipeline.run(on_progress);
  run.total_s = static_cast<double>(now_ns() - start) * 1e-9;

  run.history_hash = hash_histories(result);
  run.calib_kl = result.calibration.best_kl;
  run.online = result.online.history;
  run.stats = result.env_stats;
  if (traced) {
    run.trace.submit_ns = tracer->submit_ns().snapshot();
    run.trace.blocking_s = static_cast<double>(tracer->blocking_ns()) * 1e-9;
    for (const env::BackendKind kind : {env::BackendKind::kOffline, env::BackendKind::kOnline}) {
      const ExecTimes& times = tracer->exec(kind);
      run.trace.exec_ns[kind == env::BackendKind::kOnline ? 1 : 0] = times.exec_ns.snapshot();
      run.trace.busy_s += static_cast<double>(times.busy_ns.load()) * 1e-9;
      run.trace.episodes += times.episodes.load();
      run.trace.frames += times.frames.load();
    }
  }
  return run;
}

core::OracleOptimum find_oracle(const PipelineShape& shape, std::uint64_t seed) {
  const core::PipelineOptions options = pipeline_options(shape, seed);
  env::EnvService service(env::EnvServiceOptions{.threads = kPoolThreads});
  const env::BackendId real = service.add_real_network();
  return core::find_optimal_config(service, real, options.stage3.sla, options.stage3.workload,
                                   /*budget=*/60, seed * 7 + 5);
}

}  // namespace perfbench
