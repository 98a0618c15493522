#include "env/farm_controller.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

namespace atlas::env {

std::uint64_t params_digest(const SimParams& params) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double value : params.to_vec()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

const char* to_string(WorkerState state) noexcept {
  switch (state) {
    case WorkerState::kJoining: return "joining";
    case WorkerState::kServing: return "serving";
    case WorkerState::kSuspect: return "suspect";
    case WorkerState::kDead: return "dead";
    case WorkerState::kDraining: return "draining";
  }
  return "unknown";
}

// ---- FarmState --------------------------------------------------------------

FarmView FarmState::view() const {
  FarmView view;
  view.active = true;
  load_fields(*this, view);
  return view;
}

void FarmState::report_fault(std::uint32_t worker) {
  std::scoped_lock lock(controller_mutex_);
  if (controller_ != nullptr) controller_->report_fault(worker);
  // After the controller is gone the fault is moot — replicas are frozen.
}

// ---- FailoverBackend --------------------------------------------------------

FailoverBackend::FailoverBackend(WorkerBackendInfo descriptor, std::shared_ptr<FarmState> farm,
                                 HedgePolicy hedge, BreakerPolicy breaker)
    : descriptor_(std::move(descriptor)),
      farm_(std::move(farm)),
      hedge_(hedge),
      breaker_policy_(breaker) {
  replicas_.store(std::make_shared<const ReplicaList>(), std::memory_order_release);
  hedge_delay_cache_ms_.store(hedge_.fallback_delay_ms, std::memory_order_relaxed);
}

void FailoverBackend::add_replica(std::shared_ptr<const EnvBackend> backend,
                                  std::uint32_t worker,
                                  std::shared_ptr<const std::atomic<int>> health) {
  std::scoped_lock lock(mutex_);
  auto next = std::make_shared<ReplicaList>(*snapshot());
  next->push_back(
      Replica{std::move(backend), worker, std::move(health), std::make_shared<Breaker>()});
  replicas_.store(std::shared_ptr<const ReplicaList>(std::move(next)),
                  std::memory_order_release);
}

void FailoverBackend::remove_worker(std::uint32_t worker) {
  std::scoped_lock lock(mutex_);
  auto next = std::make_shared<ReplicaList>(*snapshot());
  std::erase_if(*next, [worker](const Replica& r) { return r.worker == worker; });
  replicas_.store(std::shared_ptr<const ReplicaList>(std::move(next)),
                  std::memory_order_release);
}

std::size_t FailoverBackend::replica_count() const { return snapshot()->size(); }

std::vector<std::uint32_t> FailoverBackend::replica_workers() const {
  const auto replicas = snapshot();
  std::vector<std::uint32_t> workers;
  workers.reserve(replicas->size());
  for (const Replica& r : *replicas) workers.push_back(r.worker);
  return workers;
}

bool FailoverBackend::breaker_allows(const Replica& replica) const {
  if (!breaker_policy_.enabled) return true;
  Breaker& b = *replica.breaker;
  const int state = b.state.load(std::memory_order_acquire);
  if (state == 0) return true;  // closed
  const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  const auto cooldown_ns = static_cast<std::int64_t>(breaker_policy_.cooldown_ms * 1e6);
  if (now_ns - b.opened_at_ns.load(std::memory_order_relaxed) < cooldown_ns) return false;
  if (state == 1) {
    // Open, cooldown elapsed: exactly ONE caller wins the CAS to half-open
    // and probes; everyone else keeps skipping. Restart the window so the
    // next probe slot arms one cooldown from now.
    int expected = 1;
    if (!b.state.compare_exchange_strong(expected, 2, std::memory_order_acq_rel)) return false;
    b.opened_at_ns.store(now_ns, std::memory_order_relaxed);
    return true;
  }
  // Half-open past its window: the claimed probe never ran (its candidate
  // lost the race to an earlier success) — re-arm rather than wedge.
  b.opened_at_ns.store(now_ns, std::memory_order_relaxed);
  return true;
}

void FailoverBackend::breaker_success(const Replica& replica) const {
  if (!breaker_policy_.enabled) return;
  replica.breaker->consecutive_failures.store(0, std::memory_order_relaxed);
  replica.breaker->state.store(0, std::memory_order_release);
}

void FailoverBackend::breaker_failure(const Replica& replica) const {
  if (!breaker_policy_.enabled) return;
  Breaker& b = *replica.breaker;
  const std::uint32_t failures =
      b.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  const int state = b.state.load(std::memory_order_acquire);
  const bool reopen = state == 2;  // failed half-open probe: straight back open
  if (!reopen && (state != 0 || failures < breaker_policy_.failure_threshold)) return;
  b.opened_at_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count(),
                       std::memory_order_relaxed);
  b.state.store(1, std::memory_order_release);
  farm_->breaker_trips.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::size_t> FailoverBackend::candidate_order(const ReplicaList& replicas) const {
  // Candidate order: serving replicas with a closed (or probe-ready) breaker
  // first, round-robin rotated so load spreads; then joining/suspect/draining
  // as fallback; dead and breaker-open replicas are skipped outright — unless
  // that leaves nothing, in which case everyone gets one last chance (a stale
  // health cell beats failing the episode).
  std::vector<std::size_t> candidates;
  candidates.reserve(replicas.size());
  const std::size_t offset = rr_.fetch_add(1, std::memory_order_relaxed) % replicas.size();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const std::size_t index = (offset + i) % replicas.size();
    const auto state =
        static_cast<WorkerState>(replicas[index].health->load(std::memory_order_relaxed));
    if (state == WorkerState::kServing && breaker_allows(replicas[index])) {
      candidates.push_back(index);
    }
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const std::size_t index = (offset + i) % replicas.size();
    const auto state =
        static_cast<WorkerState>(replicas[index].health->load(std::memory_order_relaxed));
    if (state == WorkerState::kDead) continue;
    if (state == WorkerState::kServing && breaker_allows(replicas[index])) continue;  // tier 1
    if (state == WorkerState::kServing) continue;  // breaker-open serving: last resort only
    candidates.push_back(index);
  }
  if (candidates.empty()) {
    for (std::size_t i = 0; i < replicas.size(); ++i) candidates.push_back(i);
  }
  return candidates;
}

double FailoverBackend::hedge_delay_ms() const {
  if (!hedge_.enabled) return 0.0;
  // Staleness is bounded by two clocks. Elapsed time is primary: a cached
  // delay older than refresh_interval_ms is recomputed even on a farm that
  // just woke from idle, so the first queries back never hedge on a quantile
  // learned under a dead RTT regime. The call counter is secondary — under
  // steady load it spaces the (comparatively expensive) merged-histogram
  // quantile scans to one per kHedgeRefresh episodes.
  constexpr std::uint64_t kHedgeRefresh = 64;
  const std::uint64_t call = hedge_calls_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count();
  const std::int64_t interval_ns =
      static_cast<std::int64_t>(hedge_.refresh_interval_ms * 1e6);
  const bool stale =
      now_ns - hedge_refreshed_ns_.load(std::memory_order_relaxed) >= interval_ns;
  if (stale || call % kHedgeRefresh == 0) {
    hedge_refreshed_ns_.store(now_ns, std::memory_order_relaxed);
    telemetry::HistogramData rtt;
    const auto replicas = snapshot();
    for (const Replica& replica : *replicas) {
      BackendStats stats;
      replica.backend->fill_stats(stats);
      rtt.merge(stats.rpc_rtt_ns);
    }
    double delay_ms = hedge_.fallback_delay_ms;
    if (rtt.count() >= hedge_.min_samples) {
      delay_ms = std::clamp(static_cast<double>(rtt.quantile(hedge_.quantile)) / 1e6,
                            hedge_.min_delay_ms, hedge_.max_delay_ms);
    }
    hedge_delay_cache_ms_.store(delay_ms, std::memory_order_relaxed);
  }
  return hedge_delay_cache_ms_.load(std::memory_order_relaxed);
}

int FailoverBackend::breaker_state(std::uint32_t worker) const {
  const auto replicas = snapshot();
  for (const Replica& replica : *replicas) {
    if (replica.worker == worker) return replica.breaker->state.load(std::memory_order_acquire);
  }
  return -1;
}

bool FailoverBackend::execute_hedged(const EnvQuery& query, const ReplicaList& replicas,
                                     const std::vector<std::size_t>& candidates,
                                     double hedge_ms, EpisodeResult& result,
                                     std::exception_ptr& last, bool& faulted) const {
  // Shared scoreboard for up to two racing attempts. Heap-allocated and
  // joined below, so no attempt outlives it.
  struct Race {
    std::mutex mutex;
    std::condition_variable cv;
    int finished = 0;
    bool have_result = false;
    std::size_t winner = 0;
    EpisodeResult result;
    std::exception_ptr error[2];
    CancelToken cancel[2]{{false}, {false}};
  };
  const auto race = std::make_shared<Race>();

  const auto run_attempt = [&query, race](const Replica& replica, std::size_t slot) {
    try {
      EpisodeResult r = replica.backend->execute_cancellable(query, race->cancel[slot]);
      std::scoped_lock lock(race->mutex);
      if (!race->have_result) {
        race->have_result = true;
        race->winner = slot;
        race->result = std::move(r);
      }
      ++race->finished;
      race->cv.notify_all();
    } catch (...) {
      std::scoped_lock lock(race->mutex);
      race->error[slot] = std::current_exception();
      ++race->finished;
      race->cv.notify_all();
    }
  };

  const Replica& primary = replicas[candidates[0]];
  const Replica& secondary = replicas[candidates[1]];
  std::thread first(run_attempt, std::cref(primary), 0);
  bool hedged = false;
  {
    std::unique_lock lock(race->mutex);
    if (!race->cv.wait_for(lock,
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double, std::milli>(hedge_ms)),
                           [&] { return race->finished >= 1; })) {
      hedged = true;
    }
  }
  std::thread second;
  if (hedged) {
    farm_->hedges.fetch_add(1, std::memory_order_relaxed);
    second = std::thread(run_attempt, std::cref(secondary), 1);
  }
  {
    std::unique_lock lock(race->mutex);
    const int expected = hedged ? 2 : 1;
    race->cv.wait(lock, [&] { return race->have_result || race->finished >= expected; });
  }
  // First response won (or everything failed): cancel whoever is still
  // running, then JOIN both attempts — the loser unparks within a poll slice,
  // and joining keeps this race free of detached-thread lifetime hazards.
  race->cancel[0].store(true, std::memory_order_release);
  race->cancel[1].store(true, std::memory_order_release);
  first.join();
  if (second.joinable()) second.join();

  const auto settle_loser = [&](const Replica& replica, std::size_t slot) {
    if (race->error[slot] == nullptr) {
      if (!(race->have_result && race->winner == slot)) {
        // Finished fine but lost the race; still a healthy replica.
        breaker_success(replica);
      }
      return;
    }
    try {
      std::rethrow_exception(race->error[slot]);
    } catch (const EpisodeCancelled&) {
      // The hedge loser we cancelled — not a fault, no breaker movement.
    } catch (...) {
      last = race->error[slot];
      faulted = true;
      breaker_failure(replica);
      farm_->report_fault(replica.worker);
    }
  };
  settle_loser(primary, 0);
  if (hedged) settle_loser(secondary, 1);

  if (!race->have_result) return false;
  const Replica& won = race->winner == 0 ? primary : secondary;
  breaker_success(won);
  if (race->winner == 1) farm_->hedge_wins.fetch_add(1, std::memory_order_relaxed);
  if (faulted) {
    // The primary FAILED (not merely lagged) and the hedge completed the
    // episode: that is a redispatch, same as the sequential path.
    farm_->episodes_redispatched.fetch_add(1, std::memory_order_relaxed);
  }
  result = std::move(race->result);
  return true;
}

EpisodeResult FailoverBackend::execute(const EnvQuery& query) const {
  const auto replicas = snapshot();
  if (replicas->empty()) {
    throw std::runtime_error("FailoverBackend '" + descriptor_.name + "': no replicas attached");
  }
  const std::vector<std::size_t> candidates = candidate_order(*replicas);

  std::exception_ptr last;
  bool faulted = false;
  std::size_t start = 0;
  const double hedge_ms = candidates.size() >= 2 ? hedge_delay_ms() : 0.0;
  if (hedge_ms > 0.0) {
    EpisodeResult result;
    if (execute_hedged(query, *replicas, candidates, hedge_ms, result, last, faulted)) {
      return result;
    }
    start = 2;  // both racing attempts failed; fall through to the rest
  }

  for (std::size_t c = start; c < candidates.size(); ++c) {
    const Replica& replica = (*replicas)[candidates[c]];
    try {
      EpisodeResult result = replica.backend->execute(query);
      breaker_success(replica);
      if (faulted) {
        // The episode died with one worker and completed on another —
        // deterministic per seed, so the result is the one the lost worker
        // would have produced. Count it exactly once per episode.
        farm_->episodes_redispatched.fetch_add(1, std::memory_order_relaxed);
      }
      return result;
    } catch (...) {
      last = std::current_exception();
      faulted = true;
      breaker_failure(replica);
      // Data-plane detection: don't wait for the heartbeat sweep to shun
      // this worker for the rest of the batch.
      farm_->report_fault(replica.worker);
    }
  }
  std::rethrow_exception(last);
}

void FailoverBackend::fill_stats(BackendStats& stats) const {
  const auto replicas = snapshot();
  for (const Replica& replica : *replicas) {
    BackendStats replica_stats;
    replica.backend->fill_stats(replica_stats);
    add_fields(stats, replica_stats);
  }
}

void FailoverBackend::reset_stats() const {
  const auto replicas = snapshot();
  for (const Replica& replica : *replicas) replica.backend->reset_stats();
}

// ---- FarmController ---------------------------------------------------------

FarmController::FarmController(ShardRouter& router, FarmControllerOptions options)
    : router_(router), options_(options), state_(std::make_shared<FarmState>()) {
  {
    std::scoped_lock lock(state_->controller_mutex_);
    state_->controller_ = this;
  }
  router_.attach_farm(state_);
}

FarmController::~FarmController() {
  stop();
  // Replicas and the router outlive us; detach so late fault reports from
  // in-flight episodes hit a null controller instead of a dangling one.
  std::scoped_lock lock(state_->controller_mutex_);
  state_->controller_ = nullptr;
}

void FarmController::set_state_locked(Worker& worker, WorkerState next) {
  const WorkerState prev = worker.state;
  if (prev == next) return;
  if (prev == WorkerState::kServing) {
    state_->workers_serving.fetch_sub(1, std::memory_order_relaxed);
  }
  if (prev == WorkerState::kSuspect) {
    state_->workers_suspect.fetch_sub(1, std::memory_order_relaxed);
  }
  if (next == WorkerState::kServing) {
    state_->workers_serving.fetch_add(1, std::memory_order_relaxed);
  }
  if (next == WorkerState::kSuspect) {
    state_->workers_suspect.fetch_add(1, std::memory_order_relaxed);
  }
  worker.state = next;
  worker.health->store(static_cast<int>(next), std::memory_order_relaxed);
}

std::uint32_t FarmController::add_worker(std::shared_ptr<WorkerControl> control) {
  if (control == nullptr) {
    throw std::invalid_argument("FarmController: null worker control");
  }
  // The admission round-trip happens before any bookkeeping: a worker that
  // cannot answer hello() is not admitted (and this throw is the caller's
  // signal).
  WorkerAnnounce announce = control->hello();

  std::scoped_lock lock(mutex_);
  const auto index = static_cast<std::uint32_t>(workers_.size());
  Worker worker;
  worker.control = control;
  worker.health = std::make_shared<std::atomic<int>>(static_cast<int>(WorkerState::kJoining));
  worker.announce = announce;

  for (std::size_t i = 0; i < announce.backends.size(); ++i) {
    const WorkerBackendInfo& info = announce.backends[i];
    const auto remote_local = static_cast<BackendId>(i);
    const std::uint64_t key = info.equivalence_key();
    BackendId global;
    std::shared_ptr<FailoverBackend> failover;
    const auto existing = backends_by_key_.find(key);
    if (existing != backends_by_key_.end()) {
      global = existing->second;
      failover = failover_backends_.at(global);
    } else {
      // First worker advertising this kind: a fresh FailoverBackend enters
      // the router's LIVE BackendId space — late joiners extend the farm
      // without disturbing existing ids.
      failover = std::make_shared<FailoverBackend>(info, state_, options_.hedge,
                                                   options_.breaker);
      global = router_.register_backend(failover);
      backends_by_key_.emplace(key, global);
      failover_backends_.emplace(global, failover);
    }
    failover->add_replica(control->make_backend(info, remote_local), index, worker.health);
    worker.hosted.emplace_back(global, remote_local);
  }

  workers_.push_back(std::move(worker));
  state_->workers.fetch_add(1, std::memory_order_relaxed);
  state_->workers_joined.fetch_add(1, std::memory_order_relaxed);
  set_state_locked(workers_.back(), WorkerState::kServing);
  return index;
}

void FarmController::drain_worker(std::uint32_t index) {
  std::shared_ptr<WorkerControl> control;
  std::vector<std::pair<BackendId, BackendId>> hosted;
  {
    std::scoped_lock lock(mutex_);
    if (index >= workers_.size()) {
      throw std::out_of_range("FarmController: unknown worker " + std::to_string(index));
    }
    Worker& worker = workers_[index];
    if (worker.state == WorkerState::kDead || worker.state == WorkerState::kDraining) return;
    set_state_locked(worker, WorkerState::kDraining);
    control = worker.control;
    hosted = worker.hosted;
  }

  // Memo migration runs OUTSIDE the controller lock: it is a sequence of
  // network round-trips, and the data plane (fault reports, heartbeats)
  // must not stall behind it.
  for (const auto& [global, remote_local] : hosted) {
    std::vector<MemoEntrySnapshot> memo;
    try {
      memo = control->export_memo(remote_local);
    } catch (const std::exception&) {
      continue;  // worker already sick: its entries will be recomputed
    }
    if (memo.empty()) continue;

    // Target: another worker serving a replica of the SAME global backend —
    // its memo keys are interchangeable by construction (equivalence key).
    std::shared_ptr<WorkerControl> target_control;
    BackendId target_local = 0;
    {
      std::scoped_lock lock(mutex_);
      const auto it = failover_backends_.find(global);
      if (it == failover_backends_.end()) continue;
      for (const std::uint32_t candidate : it->second->replica_workers()) {
        if (candidate == index || candidate >= workers_.size()) continue;
        const Worker& other = workers_[candidate];
        if (other.state != WorkerState::kServing) continue;
        for (const auto& [other_global, other_local] : other.hosted) {
          if (other_global == global) {
            target_control = other.control;
            target_local = other_local;
            break;
          }
        }
        if (target_control != nullptr) break;
      }
    }
    if (target_control == nullptr) continue;  // no equivalent home: recompute on demand

    try {
      BackendInstallRequest request;
      request.target_backend = static_cast<std::int32_t>(target_local);
      request.memo = std::move(memo);
      const InstallResult result = target_control->install_backend(request);
      state_->memo_entries_migrated.fetch_add(result.imported, std::memory_order_relaxed);
      state_->backends_migrated.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Migration is best-effort; the entries die with the drain.
    }
  }

  {
    std::scoped_lock lock(mutex_);
    Worker& worker = workers_[index];
    for (const auto& [global, remote_local] : worker.hosted) {
      const auto it = failover_backends_.find(global);
      if (it != failover_backends_.end()) it->second->remove_worker(index);
    }
    set_state_locked(worker, WorkerState::kDead);
    state_->workers_drained.fetch_add(1, std::memory_order_relaxed);
    }
}

void FarmController::mark_dead_locked(std::uint32_t index) {
  Worker& worker = workers_[index];
  for (const auto& [global, remote_local] : worker.hosted) {
    const auto it = failover_backends_.find(global);
    if (it != failover_backends_.end()) it->second->remove_worker(index);
  }
  set_state_locked(worker, WorkerState::kDead);
  state_->workers_lost.fetch_add(1, std::memory_order_relaxed);
}

void FarmController::report_fault(std::uint32_t index) {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) return;
  Worker& worker = workers_[index];
  if (worker.state != WorkerState::kServing) return;
  // Demote on data-plane evidence; the next heartbeat sweep either clears
  // the suspicion (transient blip) or escalates to dead.
  set_state_locked(worker, WorkerState::kSuspect);
}

void FarmController::poll_once() {
  struct Probe {
    std::uint32_t index;
    std::shared_ptr<WorkerControl> control;
  };
  std::vector<Probe> probes;
  {
    std::scoped_lock lock(mutex_);
    for (std::uint32_t i = 0; i < workers_.size(); ++i) {
      const Worker& worker = workers_[i];
      if (worker.state == WorkerState::kServing || worker.state == WorkerState::kSuspect) {
        probes.push_back(Probe{i, worker.control});
      }
    }
  }

  for (const Probe& probe : probes) {
    bool alive = false;
    try {
      (void)probe.control->heartbeat();
      alive = true;
    } catch (const std::exception&) {
      alive = false;
    }

    std::scoped_lock lock(mutex_);
    Worker& worker = workers_[probe.index];
    if (worker.state != WorkerState::kServing && worker.state != WorkerState::kSuspect) {
      continue;  // drained/died while we were probing
    }
    if (alive) {
      worker.missed = 0;
      if (worker.state == WorkerState::kSuspect) {
        set_state_locked(worker, WorkerState::kServing);
      }
      continue;
    }
    ++worker.missed;
    state_->heartbeats_missed.fetch_add(1, std::memory_order_relaxed);
    if (worker.missed >= options_.dead_after_misses) {
      mark_dead_locked(probe.index);
    } else if (worker.missed >= options_.suspect_after_misses) {
      set_state_locked(worker, WorkerState::kSuspect);
    }
  }
  std::scoped_lock lock(mutex_);
}

void FarmController::start() {
  std::scoped_lock lock(mutex_);
  if (monitor_.joinable()) return;  // already running
  monitor_stop_ = false;
  monitor_ = std::thread([this] {
    std::unique_lock lock(mutex_);
    for (;;) {
      if (monitor_cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_interval_ms),
                               [this] { return monitor_stop_; })) {
        return;
      }
      lock.unlock();
      poll_once();
      lock.lock();
    }
  });
}

void FarmController::stop() {
  {
    std::scoped_lock lock(mutex_);
    monitor_stop_ = true;
    monitor_cv_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();
}

WorkerState FarmController::worker_state(std::uint32_t index) const {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) {
    throw std::out_of_range("FarmController: unknown worker " + std::to_string(index));
  }
  return workers_[index].state;
}

std::size_t FarmController::worker_count() const {
  std::scoped_lock lock(mutex_);
  return workers_.size();
}

std::vector<BackendId> FarmController::worker_backends(std::uint32_t index) const {
  std::scoped_lock lock(mutex_);
  if (index >= workers_.size()) {
    throw std::out_of_range("FarmController: unknown worker " + std::to_string(index));
  }
  std::vector<BackendId> ids;
  ids.reserve(workers_[index].hosted.size());
  for (const auto& [global, remote_local] : workers_[index].hosted) ids.push_back(global);
  return ids;
}

}  // namespace atlas::env
