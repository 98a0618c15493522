#pragma once

/// The pipeline phase of a workload: `AtlasPipeline::run` end to end at the
/// quickstart budgets, on an in-process `EnvService`, timed per stage from
/// the `PipelineProgress` events.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "atlas/oracle.hpp"
#include "atlas/pipeline.hpp"
#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace perfbench {

namespace core = atlas::core;
namespace env = atlas::env;

/// Service pool width of every service the benchmark builds.
inline constexpr std::size_t kPoolThreads = 4;

/// What varies between the pipeline workloads; the surrogate budgets
/// (iterations, parallel queries, candidates) are the same for all.
struct PipelineShape {
  double episode_ms = 10000.0;   ///< Simulated length of every episode.
  int extra_users = 0;           ///< Background UEs per episode.
  bool crn = false;              ///< CRN seed plan (4 replicates) instead of fresh.
  std::size_t speculate_top_k = 0;
};

/// The quickstart budgets of examples/quickstart.cpp with the shape's
/// workload, seed plan and speculation depth; stage seeds derive from `seed`.
core::PipelineOptions pipeline_options(const PipelineShape& shape, std::uint64_t seed);

/// Iterations per stage at the quickstart budgets (the §7.3 unit).
inline constexpr std::array<std::size_t, 3> kStageIterations = {40, 60, 20};

/// Per-layer view of one traced pipeline run (forwarding client, thread CPU
/// at each progress event, stats snapshot).
struct PipelineTrace {
  std::array<double, 3> cpu_s{};  ///< Pipeline-thread CPU per stage.
  atlas::telemetry::HistogramData submit_ns;
  double blocking_s = 0.0;  ///< Time blocked in run / run_batch.
  /// Episode executions per backend kind: [offline, online].
  std::array<atlas::telemetry::HistogramData, 2> exec_ns;
  double busy_s = 0.0;
  std::uint64_t episodes = 0;
  std::uint64_t frames = 0;
};

struct PipelineRun {
  double total_s = 0.0;  ///< AtlasPipeline::run wall time.
  std::array<double, 3> wall_s{};
  std::uint64_t history_hash = 0;  ///< FNV-1a over every stage history.
  double calib_kl = 0.0;
  std::vector<core::OnlineStep> online;
  env::EnvServiceStats stats;  ///< The pipeline's own accounting (this run).
  PipelineTrace trace;
};

/// Build a fresh service, run the whole pipeline once, tear down.
PipelineRun run_pipeline(const PipelineShape& shape, std::uint64_t seed, bool traced);

/// phi* for regret accounting, searched on a separate service (its metered
/// queries never count against the pipeline's).
core::OracleOptimum find_oracle(const PipelineShape& shape, std::uint64_t seed);

/// FNV-1a over the calibration, offline and online histories.
std::uint64_t hash_histories(const core::PipelineResult& result);

}  // namespace perfbench
