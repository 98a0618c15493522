#include "serve_phase.hpp"

#include <algorithm>
#include <stdexcept>

#include "env/environment.hpp"

namespace perfbench {

Farm::Farm(bool traced) {
  std::vector<std::shared_ptr<rpc::RemoteWorkerControl>> controls;
  for (std::size_t w = 0; w < kFarmWorkers; ++w) {
    Worker worker;
    worker.service =
        std::make_unique<env::EnvService>(env::EnvServiceOptions{.threads = kWorkerThreads});
    std::shared_ptr<const env::EnvBackend> sim = std::make_shared<env::LocalBackend>(
        std::make_shared<env::Simulator>(env::SimParams::defaults()), "sim-0",
        env::BackendKind::kOffline);
    if (traced) sim = std::make_shared<TimedBackend>(std::move(sim), worker_exec_);
    worker.service->register_backend(std::move(sim));
    worker.server = std::make_unique<rpc::EpisodeRpcServer>(*worker.service);
    worker.server->set_backend_digest(0, env::params_digest(env::SimParams::defaults()));
    rpc::RemoteWorkerOptions control;
    control.port = worker.server->port();
    controls.push_back(std::make_shared<rpc::RemoteWorkerControl>(control));
    workers_.push_back(std::move(worker));
  }
  router_ = std::make_unique<env::ShardRouter>(
      1, env::EnvServiceOptions{.threads = kGeneratorThreads});
  controller_ = std::make_unique<env::FarmController>(*router_);
  for (const auto& control : controls) controller_->add_worker(control);
  const std::vector<env::BackendId> hosted = controller_->worker_backends(0);
  if (hosted.empty()) throw std::runtime_error("farm: worker 0 announced no backend");
  offline_ = hosted.front();
  online_ = router_->add_real_network();
  controller_->start();

  // One uncached (trace-collecting) query per worker opens every data
  // connection; the failover backend round-robins its replicas.
  env::EnvQuery warm;
  warm.backend = offline_;
  warm.workload.duration_ms = 100.0;
  warm.workload.collect_traces = true;
  warm.workload.extra_users = kServeExtraUsers;
  for (std::size_t w = 0; w < kFarmWorkers; ++w) router_->run(warm);
}

Farm::~Farm() {
  controller_->stop();
  controller_.reset();
  router_.reset();
  for (auto& worker : workers_) worker.server->stop();
}

atlas::telemetry::HistogramData Farm::worker_service_ns() const {
  atlas::telemetry::HistogramData merged;
  for (const auto& worker : workers_) merged.merge(worker.server->service_time());
  return merged;
}

namespace {

/// Per-backend counters and farm counters accumulated between two snapshots.
env::EnvServiceStats stats_delta(const env::EnvServiceStats& before, env::EnvServiceStats now) {
  for (std::size_t i = 0; i < before.backends.size() && i < now.backends.size(); ++i) {
    env::BackendStats& b = now.backends[i];
    const env::BackendStats& a = before.backends[i];
    b.queries -= a.queries;
    b.cache_hits -= a.cache_hits;
    b.cache_misses -= a.cache_misses;
    b.episodes -= a.episodes;
    b.shedded -= a.shedded;
    b.deadline_rejected -= a.deadline_rejected;
    b.cancelled -= a.cancelled;
    b.rpc_retries -= a.rpc_retries;
    b.rpc_failures -= a.rpc_failures;
    b.rpc_rtt_ns.subtract(a.rpc_rtt_ns);
  }
  now.farm.hedges -= before.farm.hedges;
  now.farm.episodes_redispatched -= before.farm.episodes_redispatched;
  return now;
}

}  // namespace

ServePoint serve_point(Farm& farm, std::uint64_t seed, std::uint64_t point, double qps) {
  PlanOptions options;
  options.qps = qps;
  options.duration_s = std::max(kMinPointSeconds, kPointSamples / qps);
  options.seed = seed;
  options.point = point;
  options.episode_ms = kServeEpisodeMs;
  options.extra_users = kServeExtraUsers;
  options.offline_backend = farm.offline();
  options.online_backend = farm.online();

  ServePoint out;
  out.plan = build_plan(options);
  const env::EnvServiceStats before = farm.router().stats();
  out.result = run_point(farm.router(), out.plan, kGeneratorThreads);
  out.stats = stats_delta(before, farm.router().stats());
  return out;
}

bool point_meets_limit(const ServePoint& point) {
  const PointResult& r = point.result;
  const double p99_ms = static_cast<double>(r.latency_ns.quantile(0.99)) * 1e-6;
  // A backlog that grows over the point shows as lateness climbing from the
  // first third of the schedule to the last.
  const bool backlog = r.late_lateness_ms > r.early_lateness_ms + 0.5 * kP99LimitMs;
  return r.failed == 0 && r.rejected == 0 && p99_ms <= kP99LimitMs && !backlog;
}

}  // namespace perfbench
