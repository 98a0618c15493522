#pragma once

/// The benchmark's own open-loop load generator for the serving phase.
///
/// `build_plan` turns a seed into a schedule: Poisson arrival offsets and one
/// `EnvQuery` per arrival, drawn from the serving mix of env/loadgen.hpp
/// (45% CRN revisits of a 16-incumbent pool, 5% metered online, 10%
/// trace-collecting, 40% fresh). It uses its own splitmix64 stream, so the
/// inputs do not move when the program's RNG or planner changes.
///
/// `run_point` replays a plan open-loop from `threads` generator threads:
/// each thread claims the next due event, sleeps until its scheduled offset,
/// and calls `EnvClient::run`. Latency is timed from the scheduled arrival,
/// so a stall is charged to every query that waited behind it.

#include <array>
#include <cstdint>
#include <vector>

#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace perfbench {

namespace env = atlas::env;

enum class LoadKind : std::uint8_t { kRevisit = 0, kOnline = 1, kTrace = 2, kFresh = 3 };
inline constexpr std::size_t kLoadKinds = 4;
const char* to_string(LoadKind kind) noexcept;

/// The serving mix of env/loadgen.hpp; the remaining 40% are fresh queries.
inline constexpr double kRevisitShare = 0.45;
inline constexpr double kOnlineShare = 0.05;
inline constexpr double kTraceShare = 0.10;
inline constexpr std::size_t kIncumbents = 16;

struct PlanOptions {
  double qps = 100.0;
  double duration_s = 2.0;
  std::uint64_t seed = 1;
  /// Salt for the fresh-seed range, so consecutive points never replay each
  /// other's fresh episodes while sharing one incumbent pool.
  std::uint64_t point = 0;
  double episode_ms = 10000.0;
  int extra_users = 16;
  env::BackendId offline_backend = 0;
  env::BackendId online_backend = 0;
};

struct PlanEvent {
  double arrival_s = 0.0;  ///< Offset from the start of the point, ascending.
  LoadKind kind = LoadKind::kFresh;
  env::EnvQuery query;
};

struct Plan {
  std::vector<PlanEvent> events;
  std::array<std::size_t, kLoadKinds> count{};  ///< Events per LoadKind.
  double horizon_s = 0.0;
};

/// Deterministic in `options`: the same options give identical events.
Plan build_plan(const PlanOptions& options);

struct PointResult {
  std::size_t completed = 0;
  std::size_t failed = 0;    ///< The call threw.
  std::size_t rejected = 0;  ///< Typed rejection instead of an episode.
  double wall_s = 0.0;       ///< Start to last completion.
  atlas::telemetry::HistogramData latency_ns;   ///< Completion minus schedule.
  atlas::telemetry::HistogramData lateness_ns;  ///< Dispatch minus schedule.
  std::array<atlas::telemetry::HistogramData, kLoadKinds> kind_latency_ns;
  /// Mean dispatch lateness over the first and last third of the schedule;
  /// a growing gap means the offered rate outran the system.
  double early_lateness_ms = 0.0;
  double late_lateness_ms = 0.0;
  /// Per event: FNV-1a of the result (0 when failed or rejected).
  std::vector<std::uint64_t> result_hash;

  std::size_t attempted() const noexcept { return completed + failed + rejected; }
};

/// Replay `plan` against `client` from `threads` generator threads.
PointResult run_point(env::EnvClient& client, const Plan& plan, std::size_t threads);

/// FNV-1a over every measured field of an episode result.
std::uint64_t hash_result(const env::EpisodeResult& result);

}  // namespace perfbench
