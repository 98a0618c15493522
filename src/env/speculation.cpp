#include "env/speculation.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace atlas::env {

std::size_t SpeculationPlanner::KeyHash::operator()(const Key& key) const noexcept {
  // Same splitmix-style combine as EnvService::QueryKeyHash — keys that
  // collide there collide here, which is exactly the equivalence we track.
  std::size_t h = std::hash<BackendId>{}(key.backend);
  for (double v : key.values) {
    std::size_t x = std::hash<double>{}(v) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= x ^ (x >> 31);
    h *= 0x100000001b3ULL;
  }
  return h;
}

SpeculationPlanner::Key SpeculationPlanner::key_of(const EnvQuery& query) {
  // Mirrors EnvService::make_key: every field that determines the episode's
  // outcome, and nothing that merely shapes serving (crn/deadline/priority).
  Key key;
  key.backend = query.backend;
  auto& v = key.values;
  v = query.config.to_vec();
  v.push_back(static_cast<double>(query.workload.traffic));
  v.push_back(query.workload.duration_ms);
  v.push_back(query.workload.distance_m);
  v.push_back(query.workload.random_walk ? 1.0 : 0.0);
  v.push_back(static_cast<double>(query.workload.extra_users));
  v.push_back(static_cast<double>(query.workload.seed & 0xffffffffULL));
  v.push_back(static_cast<double>(query.workload.seed >> 32));
  if (query.sim_params) {
    v.push_back(1.0);
    const auto params = query.sim_params->to_vec();
    v.insert(v.end(), params.begin(), params.end());
  }
  return key;
}

SpeculationPlanner::SpeculationPlanner(EnvClient& client, SpeculationOptions options)
    : client_(client),
      options_(options),
      state_(std::make_shared<SpeculationState>()) {
  if (options_.top_k == 0) options_.top_k = 1;
  max_outstanding_ =
      options_.max_outstanding > 0 ? options_.max_outstanding : options_.top_k * 4;
  client_.attach_speculation(state_);
}

SpeculationPlanner::~SpeculationPlanner() { close_iteration(); }

std::size_t SpeculationPlanner::budget() const {
  std::scoped_lock lock(mutex_);
  // top_k is the per-checkpoint prefetch depth; max_outstanding_ caps the
  // iteration's TOTAL open flights, so a later checkpoint can still launch a
  // new scan leader while the earlier checkpoint's flights run to completion.
  if (flights_.size() >= max_outstanding_) return 0;
  std::size_t allowed = std::min(options_.top_k, max_outstanding_ - flights_.size());
  // Idle capacity only: never queue speculation behind committed work, and
  // never launch what the soft watermark would shed on arrival anyway.
  const std::size_t outstanding = client_.outstanding_queries();
  if (outstanding >= max_outstanding_) return 0;
  allowed = std::min(allowed, max_outstanding_ - outstanding);
  if (options_.shed_watermark > 0) {
    if (outstanding + 1 >= options_.shed_watermark) return 0;
    allowed = std::min(allowed, options_.shed_watermark - 1 - outstanding);
  }
  return allowed;
}

bool SpeculationPlanner::speculate(EnvQuery query) {
  query.priority = QueryPriority::kSpeculative;
  Key key = key_of(query);
  std::scoped_lock lock(mutex_);
  if (flights_.size() >= max_outstanding_) return false;
  const std::size_t outstanding = client_.outstanding_queries();
  if (outstanding >= max_outstanding_) return false;
  if (options_.shed_watermark > 0 && outstanding + 1 >= options_.shed_watermark) return false;
  const auto [it, inserted] = flights_.try_emplace(std::move(key));
  if (!inserted) return false;  // identical episode already speculated
  Flight& flight = it->second;
  flight.cancel = std::make_shared<CancelToken>(false);
  try {
    flight.handle = client_.submit_cancellable(std::move(query), flight.cancel);
  } catch (...) {
    flights_.erase(it);  // never launched: no bucket to settle
    throw;
  }
  state_->launched.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SpeculationPlanner::note_commit(const EnvQuery& query) {
  std::scoped_lock lock(mutex_);
  const auto it = flights_.find(key_of(query));
  if (it != flights_.end()) it->second.committed = true;
}

void SpeculationPlanner::close_iteration() {
  std::unordered_map<Key, Flight, KeyHash> flights;
  {
    std::scoped_lock lock(mutex_);
    flights.swap(flights_);
  }
  // Cancel first, harvest second: a still-queued speculation resolves as a
  // typed kCancelled rejection at admission (and a remote in-flight one
  // aborts via the wire kCancel) instead of being waited out.
  for (auto& [key, flight] : flights) {
    if (!flight.committed) flight.cancel->store(true, std::memory_order_release);
  }
  for (auto& [key, flight] : flights) {
    bool usable = false;
    try {
      usable = !flight.handle.get().is_rejected();
    } catch (...) {
      // A faulted speculation produced nothing BO can use; settle it with
      // the abandoned ones (the committed query re-executes normally).
      usable = false;
    }
    if (usable && flight.committed) {
      state_->hits.fetch_add(1, std::memory_order_relaxed);
    } else if (usable) {
      state_->wasted.fetch_add(1, std::memory_order_relaxed);  // warm cache entry
    } else {
      state_->cancelled.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace atlas::env
