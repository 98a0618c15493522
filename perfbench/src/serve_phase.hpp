#pragma once

/// The serving phase of a workload: a `ShardRouter` + `FarmController` over
/// two in-process loopback `rpc::EpisodeRpcServer` workers, driven open-loop
/// by the benchmark's generator at a light and a heavy fixed rate plus a
/// max-rate search.

#include <memory>
#include <vector>

#include "env/env_service.hpp"
#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"
#include "forwarding.hpp"
#include "generator.hpp"
#include "rpc/server.hpp"
#include "rpc/worker_control.hpp"

namespace perfbench {

namespace rpc = atlas::rpc;

/// Workers in the farm and episode threads per worker (2 x 2 = the 4 cores).
inline constexpr std::size_t kFarmWorkers = 2;
inline constexpr std::size_t kWorkerThreads = 2;
/// Generator threads (<= nproc); one data connection per worker.
inline constexpr std::size_t kGeneratorThreads = 4;
/// p99 limit for the max-rate search, from scheduled arrival.
inline constexpr double kP99LimitMs = 50.0;

/// The serving phase: the farm mix with 10 s episodes and 16 background UEs,
/// at a light and a heavy fixed rate. Its p99 then rests on episode CPU time
/// (the metered online episodes) rather than on millisecond scheduling
/// stalls of the host.
inline constexpr double kServeEpisodeMs = 10000.0;
inline constexpr int kServeExtraUsers = 16;
inline constexpr double kLightQps = 400.0;
inline constexpr double kHeavyQps = 700.0;
/// Each point runs for at least 2 s and 1100 queries: ten samples beyond p99.
inline constexpr double kMinPointSeconds = 2.0;
inline constexpr double kPointSamples = 1100.0;

/// One in-process farm. Construction is the set-up the benchmark times:
/// worker services and servers, router, controller, worker hello, and one
/// uncached query per worker so every data connection is open.
class Farm {
 public:
  explicit Farm(bool traced);
  ~Farm();

  env::ShardRouter& router() { return *router_; }
  env::BackendId offline() const { return offline_; }
  env::BackendId online() const { return online_; }
  /// Worker-side episode timings (traced farms only).
  const ExecTimes& worker_exec() const { return *worker_exec_; }
  /// Worker-side RPC service time, merged over workers.
  atlas::telemetry::HistogramData worker_service_ns() const;

 private:
  struct Worker {
    std::unique_ptr<env::EnvService> service;
    std::unique_ptr<rpc::EpisodeRpcServer> server;
  };
  std::shared_ptr<ExecTimes> worker_exec_ = std::make_shared<ExecTimes>();
  std::vector<Worker> workers_;
  std::unique_ptr<env::ShardRouter> router_;
  std::unique_ptr<env::FarmController> controller_;
  env::BackendId offline_ = 0;
  env::BackendId online_ = 0;
};

/// One measured load point with the router accounting over it.
struct ServePoint {
  Plan plan;
  PointResult result;
  env::EnvServiceStats stats;  ///< Router stats delta over the point.
};

/// Build a plan for `qps` at point index `point` and replay it on `farm`.
ServePoint serve_point(Farm& farm, std::uint64_t seed, std::uint64_t point, double qps);

/// Whether a point meets the p99 limit with no growing backlog and no failures.
bool point_meets_limit(const ServePoint& point);

}  // namespace perfbench
