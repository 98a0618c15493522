// FarmController unit suite: registry grouping, heartbeat-driven state
// transitions, data-plane failover/redispatch, memo migration on drain, and
// the farm view in router stats — all driven through in-process fake
// WorkerControls (no sockets), with poll_once() stepped manually so every
// transition is deterministic.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "env/farm_controller.hpp"
#include "env/shard_router.hpp"

namespace ae = atlas::env;

namespace {

/// Deterministic fake data plane: the "episode" is derived from the query
/// seed, and the whole worker can be switched to failing (execute throws)
/// via the shared flag — the same flag its heartbeats honor.
class FakeBackend final : public ae::EnvBackend {
 public:
  FakeBackend(std::string name, std::shared_ptr<std::atomic<bool>> failing,
              std::shared_ptr<std::atomic<std::uint64_t>> executed)
      : name_(std::move(name)), failing_(std::move(failing)), executed_(std::move(executed)) {}

  ae::EpisodeResult execute(const ae::EnvQuery& query) const override {
    if (failing_->load()) throw std::runtime_error(name_ + ": worker down");
    executed_->fetch_add(1);
    ae::EpisodeResult result;
    result.latencies_ms = {static_cast<double>(query.workload.seed)};
    result.frames_completed = 1;
    return result;
  }
  ae::BackendKind kind() const noexcept override { return ae::BackendKind::kOffline; }
  const std::string& name() const noexcept override { return name_; }
  bool accepts_sim_params() const noexcept override { return true; }

 private:
  std::string name_;
  std::shared_ptr<std::atomic<bool>> failing_;
  std::shared_ptr<std::atomic<std::uint64_t>> executed_;
};

class FakeWorker final : public ae::WorkerControl {
 public:
  explicit FakeWorker(std::string address, std::vector<ae::WorkerBackendInfo> backends)
      : address_(std::move(address)) {
    announce_.build = "fake-worker";
    announce_.wire_version = 4;
    announce_.backends = std::move(backends);
  }

  const std::string& address() const noexcept override { return address_; }

  ae::WorkerAnnounce hello() override {
    if (failing->load()) throw std::runtime_error(address_ + ": hello failed");
    ++hellos;
    return announce_;
  }

  ae::WorkerHealth heartbeat() override {
    ++heartbeats;
    if (failing->load()) throw std::runtime_error(address_ + ": heartbeat timeout");
    ae::WorkerHealth health;
    health.episodes = executed->load();
    return health;
  }

  std::vector<ae::MemoEntrySnapshot> export_memo(ae::BackendId remote_backend) override {
    if (failing->load()) throw std::runtime_error(address_ + ": export failed");
    exported_from.push_back(remote_backend);
    return memo;
  }

  ae::InstallResult install_backend(const ae::BackendInstallRequest& request) override {
    if (failing->load()) throw std::runtime_error(address_ + ": install failed");
    installs.push_back(request);
    ae::InstallResult result;
    result.backend = request.target_backend >= 0
                         ? static_cast<std::uint32_t>(request.target_backend)
                         : static_cast<std::uint32_t>(announce_.backends.size());
    result.imported = request.memo.size();
    return result;
  }

  std::shared_ptr<const ae::EnvBackend> make_backend(const ae::WorkerBackendInfo& info,
                                                     ae::BackendId remote_backend) override {
    return std::make_shared<FakeBackend>(info.name + "@" + address_ + "#" +
                                             std::to_string(remote_backend),
                                         failing, executed);
  }

  std::shared_ptr<std::atomic<bool>> failing = std::make_shared<std::atomic<bool>>(false);
  std::shared_ptr<std::atomic<std::uint64_t>> executed =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::vector<ae::MemoEntrySnapshot> memo;  ///< what export_memo returns
  std::vector<ae::BackendInstallRequest> installs;
  std::vector<ae::BackendId> exported_from;
  int hellos = 0;
  int heartbeats = 0;

 private:
  std::string address_;
  ae::WorkerAnnounce announce_;
};

ae::WorkerBackendInfo sim_info(std::uint64_t digest) {
  ae::WorkerBackendInfo info;
  info.name = "sim-0";
  info.kind = ae::BackendKind::kOffline;
  info.accepts_sim_params = true;
  info.params_digest = digest;
  return info;
}

ae::EnvQuery query_with_seed(ae::BackendId backend, std::uint64_t seed) {
  ae::EnvQuery q;
  q.backend = backend;
  q.workload.duration_ms = 1000.0;
  q.workload.seed = seed;
  return q;
}

ae::MemoEntrySnapshot memo_entry(double backend, double seed) {
  ae::MemoEntrySnapshot entry;
  entry.key = {backend, seed};
  entry.result.latencies_ms = {seed};
  entry.result.frames_completed = 1;
  return entry;
}

struct Farm {
  ae::ShardRouter router{2};
  ae::FarmController controller;

  explicit Farm(ae::FarmControllerOptions options = {}) : controller(router, options) {}
};

}  // namespace

TEST(FarmController, EquivalentBackendsGroupIntoOneFailoverBackend) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);

  // Same equivalence key -> same global id; the BackendId space grew by ONE.
  EXPECT_EQ(farm.controller.worker_backends(wa), farm.controller.worker_backends(wb));
  EXPECT_EQ(farm.router.backend_count(), 1u);
  EXPECT_EQ(a->hellos, 1);
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kServing);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);

  // A different digest is NOT interchangeable: new global id.
  auto c = std::make_shared<FakeWorker>("c:3", std::vector{sim_info(8)});
  farm.controller.add_worker(c);
  EXPECT_EQ(farm.router.backend_count(), 2u);

  const auto view = farm.router.stats().farm;
  EXPECT_TRUE(view.active);
  EXPECT_EQ(view.workers_joined, 3u);
  EXPECT_EQ(view.workers_serving, 3u);
}

TEST(FarmController, LateJoinerExtendsTheLiveBackendIdSpace) {
  Farm farm;
  // A local backend registered BEFORE any worker keeps its id.
  const auto local = farm.router.add_simulator();
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto remote = farm.controller.worker_backends(wa).at(0);
  EXPECT_NE(local, remote);
  EXPECT_EQ(farm.router.backend_count(), 2u);

  // Both address spaces serve: the local simulator and the farm backend.
  const auto r = farm.router.run(query_with_seed(remote, 42));
  EXPECT_EQ(r.latencies_ms, std::vector<double>{42.0});
  (void)farm.router.run(query_with_seed(local, 1));
}

TEST(FarmController, MissedHeartbeatsEscalateSuspectThenDead) {
  ae::FarmControllerOptions options;
  options.suspect_after_misses = 1;
  options.dead_after_misses = 3;
  Farm farm(options);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);

  a->failing->store(true);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);

  // Recovery clears the suspicion (and the miss counter).
  a->failing->store(false);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kServing);

  a->failing->store(true);
  farm.controller.poll_once();
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  farm.controller.poll_once();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kDead);

  const auto view = farm.router.stats().farm;
  EXPECT_EQ(view.workers_lost, 1u);
  EXPECT_EQ(view.workers_serving, 1u);
  EXPECT_EQ(view.workers_suspect, 0u);
  EXPECT_EQ(view.heartbeats_missed, 4u);

  // Dead workers stop being heartbeated and stop serving: episodes all land
  // on the survivor.
  const int before = a->heartbeats;
  farm.controller.poll_once();
  EXPECT_EQ(a->heartbeats, before);
  const auto backend = farm.controller.worker_backends(wb).at(0);
  (void)farm.router.run(query_with_seed(backend, 5));
  EXPECT_EQ(b->executed->load(), 1u);
  EXPECT_EQ(a->executed->load(), 0u);
}

TEST(FarmController, FaultedEpisodeRedispatchesAndMarksWorkerSuspect) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);
  const auto backend = farm.controller.worker_backends(wa).at(0);

  a->failing->store(true);
  // Every query either lands on b directly or faults on a and re-dispatches
  // to b — never fails, and the results are the ones a would have produced.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto result = farm.router.run(query_with_seed(backend, 100 + seed));
    EXPECT_EQ(result.latencies_ms, std::vector<double>{static_cast<double>(100 + seed)});
  }
  const auto view = farm.router.stats().farm;
  EXPECT_GE(view.episodes_redispatched, 1u);
  EXPECT_EQ(b->executed->load(), 8u);
  // The data-plane fault demoted the worker without waiting for a heartbeat.
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kSuspect);
  EXPECT_EQ(farm.controller.worker_state(wb), ae::WorkerState::kServing);
}

TEST(FarmController, DrainMigratesMemoToAnEquivalentReplica) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  const auto wb = farm.controller.add_worker(b);
  a->memo = {memo_entry(0.0, 11.0), memo_entry(0.0, 12.0), memo_entry(0.0, 13.0)};

  farm.controller.drain_worker(wa);

  // a's memo was exported from its local backend 0 and installed into b's
  // equivalent local backend (memo-merge: target_backend >= 0).
  ASSERT_EQ(a->exported_from.size(), 1u);
  EXPECT_EQ(a->exported_from[0], 0u);
  ASSERT_EQ(b->installs.size(), 1u);
  EXPECT_EQ(b->installs[0].target_backend, 0);
  EXPECT_EQ(b->installs[0].memo.size(), 3u);

  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kDead);
  const auto view = farm.router.stats().farm;
  EXPECT_EQ(view.workers_drained, 1u);
  EXPECT_EQ(view.workers_lost, 0u);  // graceful, not lost
  EXPECT_EQ(view.memo_entries_migrated, 3u);
  EXPECT_EQ(view.backends_migrated, 1u);

  // The drained worker serves nothing; b carries the backend alone.
  const auto backend = farm.controller.worker_backends(wa).at(0);
  (void)farm.router.run(query_with_seed(backend, 9));
  EXPECT_EQ(a->executed->load(), 0u);
  EXPECT_EQ(b->executed->load(), 1u);

  // Draining again is a no-op (idempotent on a dead worker).
  farm.controller.drain_worker(wa);
  EXPECT_EQ(a->exported_from.size(), 1u);
}

TEST(FarmController, DrainWithoutAnEquivalentHomeDropsTheMemo) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);
  a->memo = {memo_entry(0.0, 11.0)};

  farm.controller.drain_worker(wa);  // nowhere to put it: best-effort no-op
  const auto view = farm.router.stats().farm;
  EXPECT_EQ(view.workers_drained, 1u);
  EXPECT_EQ(view.memo_entries_migrated, 0u);
  EXPECT_EQ(view.backends_migrated, 0u);
}

TEST(FarmController, FarmCountersSurviveControllerDestruction) {
  ae::ShardRouter router(2);
  {
    ae::FarmController controller(router);
    auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
    controller.add_worker(a);
  }
  // The controller is gone; the router still reports the farm's history.
  const auto view = router.stats().farm;
  EXPECT_TRUE(view.active);
  EXPECT_EQ(view.workers_joined, 1u);
}

TEST(FarmController, RouterStatsTrackFarmCounters) {
  ae::ShardRouter router(2);
  ae::FarmController controller(router);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  auto b = std::make_shared<FakeWorker>("b:2", std::vector{sim_info(7)});
  controller.add_worker(a);
  controller.add_worker(b);
  EXPECT_EQ(router.stats().farm.workers_joined, 2u);
  EXPECT_EQ(router.stats().farm.workers_serving, 2u);

  b->failing->store(true);
  controller.poll_once();
  EXPECT_EQ(router.stats().farm.workers_suspect, 1u);
  EXPECT_EQ(router.stats().farm.heartbeats_missed, 1u);
}

TEST(FarmController, AdmissionFailureRejectsTheWorker) {
  Farm farm;
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  a->failing->store(true);
  EXPECT_THROW(farm.controller.add_worker(a), std::runtime_error);
  EXPECT_EQ(farm.controller.worker_count(), 0u);
  EXPECT_EQ(farm.router.stats().farm.workers_joined, 0u);
}

TEST(FarmController, MonitorThreadDrivesTransitions) {
  ae::FarmControllerOptions options;
  options.heartbeat_interval_ms = 10;
  options.suspect_after_misses = 1;
  options.dead_after_misses = 2;
  Farm farm(options);
  auto a = std::make_shared<FakeWorker>("a:1", std::vector{sim_info(7)});
  const auto wa = farm.controller.add_worker(a);

  farm.controller.start();
  a->failing->store(true);
  // The monitor thread needs two failed sweeps at 10ms cadence.
  for (int i = 0; i < 500; ++i) {
    if (farm.controller.worker_state(wa) == ae::WorkerState::kDead) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  farm.controller.stop();
  EXPECT_EQ(farm.controller.worker_state(wa), ae::WorkerState::kDead);
  EXPECT_GE(farm.router.stats().farm.heartbeats_missed, 2u);
}
