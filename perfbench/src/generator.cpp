#include "generator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "fnv.hpp"
#include "forwarding.hpp"

namespace perfbench {

const char* to_string(LoadKind kind) noexcept {
  switch (kind) {
    case LoadKind::kRevisit: return "revisit";
    case LoadKind::kOnline: return "online";
    case LoadKind::kTrace: return "trace";
    case LoadKind::kFresh: break;
  }
  return "fresh";
}

namespace {

/// splitmix64: small, portable, and independent of the program's math::Rng.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

/// A point in Table 2's configuration box, clamped like the optimizer's.
env::SliceConfig random_config(SplitMix& rng) {
  env::SliceConfig c;
  c.bandwidth_ul = rng.uniform(0.0, 50.0);
  c.bandwidth_dl = rng.uniform(0.0, 50.0);
  c.mcs_offset_ul = rng.uniform(0.0, 10.0);
  c.mcs_offset_dl = rng.uniform(0.0, 10.0);
  c.backhaul_mbps = rng.uniform(0.0, 100.0);
  c.cpu_ratio = rng.uniform(0.0, 1.0);
  return c.clamped();
}

}  // namespace

Plan build_plan(const PlanOptions& options) {
  if (options.qps <= 0.0 || options.duration_s <= 0.0) {
    throw std::invalid_argument("build_plan: rate and horizon must be positive");
  }
  // Separate streams per concern: the incumbent pool does not depend on the
  // rate, and the arrival times do not depend on the mix.
  SplitMix arrivals(options.seed * 0x632be59bd9b4e019ULL + options.point * 7919 + 1);
  SplitMix mix(options.seed * 0x8cb92ba72f3d8dd7ULL + options.point * 7919 + 2);
  SplitMix configs(options.seed * 0x9fb21c651e98df25ULL + options.point * 7919 + 3);
  SplitMix pool(options.seed * 0xd1b54a32d192ed03ULL + 4);

  std::vector<env::EnvQuery> incumbents(kIncumbents);
  for (std::size_t i = 0; i < incumbents.size(); ++i) {
    incumbents[i].config = random_config(pool);
    incumbents[i].workload.seed = pool.next();
    incumbents[i].crn = true;
  }
  // Fresh seeds count up from a per-point base far from the pool's seeds.
  std::uint64_t fresh_seed = (options.seed << 32) + (options.point << 20) + 1;

  Plan plan;
  plan.horizon_s = options.duration_s;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-arrivals.uniform()) / options.qps;
    if (t >= options.duration_s) break;
    PlanEvent event;
    event.arrival_s = t;
    const double roll = mix.uniform();
    if (roll < kRevisitShare) {
      event.kind = LoadKind::kRevisit;
      event.query = incumbents[static_cast<std::size_t>(mix.uniform() *
                                                       static_cast<double>(incumbents.size()))];
    } else {
      event.kind = roll < kRevisitShare + kOnlineShare ? LoadKind::kOnline
                   : roll < kRevisitShare + kOnlineShare + kTraceShare ? LoadKind::kTrace
                                                                        : LoadKind::kFresh;
      event.query.config = random_config(configs);
      event.query.workload.seed = fresh_seed++;
      event.query.workload.collect_traces = event.kind == LoadKind::kTrace;
    }
    event.query.backend =
        event.kind == LoadKind::kOnline ? options.online_backend : options.offline_backend;
    event.query.workload.duration_ms = options.episode_ms;
    event.query.workload.extra_users = options.extra_users;
    ++plan.count[static_cast<std::size_t>(event.kind)];
    plan.events.push_back(std::move(event));
  }
  return plan;
}

std::uint64_t hash_result(const env::EpisodeResult& result) {
  Fnv f;
  f.add(result.latencies_ms);
  f.add(result.frames_completed);
  f.add(result.ul_tb_total);
  f.add(result.ul_tb_err);
  f.add(result.dl_tb_total);
  f.add(result.dl_tb_err);
  f.add(result.traces.size());
  for (const auto& tr : result.traces) {
    f.add(tr.id);
    f.add(tr.created_ms);
    f.add(tr.completed_ms);
  }
  return f.h;
}

PointResult run_point(env::EnvClient& client, const Plan& plan, std::size_t threads) {
  const std::size_t n = plan.events.size();
  PointResult out;
  out.result_hash.assign(n, 0);
  if (n == 0) return out;

  enum class Outcome : std::uint8_t { kDone, kFailed, kRejected };
  std::vector<Outcome> outcome(n, Outcome::kDone);
  std::vector<std::uint64_t> latency(n, 0);
  std::vector<std::uint64_t> lateness(n, 0);
  std::atomic<std::size_t> next{0};
  const std::uint64_t start = now_ns();

  auto generator = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      const PlanEvent& event = plan.events[i];
      const std::uint64_t due = start + static_cast<std::uint64_t>(event.arrival_s * 1e9);
      std::uint64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      lateness[i] = now - due;
      try {
        const env::EpisodeResult result = client.run(event.query);
        latency[i] = now_ns() - due;
        if (result.is_rejected()) {
          outcome[i] = Outcome::kRejected;
        } else {
          out.result_hash[i] = hash_result(result);
        }
      } catch (const std::exception&) {
        outcome[i] = Outcome::kFailed;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) pool.emplace_back(generator);
  for (auto& th : pool) th.join();

  std::uint64_t last = 0;
  double early = 0.0, late = 0.0;
  std::size_t early_n = 0, late_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PlanEvent& event = plan.events[i];
    out.lateness_ns.record(lateness[i]);
    if (event.arrival_s < plan.horizon_s / 3.0) {
      early += static_cast<double>(lateness[i]);
      ++early_n;
    } else if (event.arrival_s >= plan.horizon_s * 2.0 / 3.0) {
      late += static_cast<double>(lateness[i]);
      ++late_n;
    }
    switch (outcome[i]) {
      case Outcome::kFailed: ++out.failed; continue;
      case Outcome::kRejected: ++out.rejected; continue;
      case Outcome::kDone: break;
    }
    ++out.completed;
    out.latency_ns.record(latency[i]);
    out.kind_latency_ns[static_cast<std::size_t>(event.kind)].record(latency[i]);
    last = std::max(last, static_cast<std::uint64_t>(event.arrival_s * 1e9) + latency[i]);
  }
  out.early_lateness_ms = early_n == 0 ? 0.0 : early / static_cast<double>(early_n) * 1e-6;
  out.late_lateness_ms = late_n == 0 ? 0.0 : late / static_cast<double>(late_n) * 1e-6;
  out.wall_s = static_cast<double>(last) * 1e-9;
  return out;
}

}  // namespace perfbench
