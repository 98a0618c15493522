#include "env/client.hpp"

#include <stdexcept>
#include <utility>

namespace atlas::env {

namespace {

/// Non-owning shared_ptr view of a caller-owned environment.
std::shared_ptr<const NetworkEnvironment> borrow(const NetworkEnvironment& environment) {
  return std::shared_ptr<const NetworkEnvironment>(&environment,
                                                   [](const NetworkEnvironment*) {});
}

}  // namespace

EpisodeResult QueryHandle::get() {
  if (!future_.valid()) {
    throw std::logic_error(
        "QueryHandle::get(): handle is default-constructed, moved-from, or already consumed");
  }
  return future_.get();
}

BackendId EnvClient::register_backend(const NetworkEnvironment& environment, std::string name,
                                      BackendKind kind) {
  return register_backend(borrow(environment), std::move(name), kind);
}

BackendId EnvClient::register_backend(std::shared_ptr<const NetworkEnvironment> environment,
                                      std::string name, BackendKind kind) {
  if (environment == nullptr) {
    throw std::invalid_argument("EnvClient: null environment");
  }
  return register_backend(
      std::make_shared<LocalBackend>(std::move(environment), std::move(name), kind));
}

BackendId EnvClient::add_simulator(const SimParams& params, std::string name) {
  return register_backend(std::make_shared<Simulator>(params), std::move(name),
                          BackendKind::kOffline);
}

BackendId EnvClient::add_real_network(std::string name) {
  return register_backend(std::make_shared<RealNetwork>(), std::move(name),
                          BackendKind::kOnline);
}

BackendId EnvClient::add_multi_slice(NetworkProfile profile, std::vector<SliceSpec> background,
                                     std::string name, BackendKind kind) {
  return register_backend(
      std::make_shared<MultiSliceEnvironment>(std::move(profile), std::move(background)),
      std::move(name), kind);
}

EpisodeResult EnvClient::run(BackendId backend, const SliceConfig& config,
                             const Workload& workload) {
  EnvQuery q;
  q.backend = backend;
  q.config = config;
  q.workload = workload;
  return run(q);
}

double EnvClient::measure_qoe(const EnvQuery& query, double threshold_ms) {
  return run(query).qoe(threshold_ms);
}

double EnvClient::measure_qoe(BackendId backend, const SliceConfig& config,
                              const Workload& workload, double threshold_ms) {
  return run(backend, config, workload).qoe(threshold_ms);
}

std::vector<double> EnvClient::measure_qoe_batch(std::span<const EnvQuery> queries,
                                                 double threshold_ms) {
  const auto episodes = run_batch(queries);
  std::vector<double> qoes(episodes.size(), 0.0);
  for (std::size_t i = 0; i < episodes.size(); ++i) qoes[i] = episodes[i].qoe(threshold_ms);
  return qoes;
}

void EnvServiceStats::add_backend(BackendStats row) {
  const RowFilter own = row.kind == BackendKind::kOnline ? RowFilter::kOnline : RowFilter::kOffline;
  visit_fold([&](auto total, auto row_field, RowFilter rows) {
    if (rows == RowFilter::kAll || rows == own) this->*total += row.*row_field;
  });
  backends.push_back(std::move(row));
}

EnvServiceStats EnvServiceStats::since(const EnvServiceStats& start) const {
  EnvServiceStats delta = *this;
  for (std::size_t i = 0; i < start.backends.size() && i < delta.backends.size(); ++i) {
    subtract_fields(delta.backends[i], start.backends[i]);
  }
  subtract_fields(delta, start);
  subtract_fields(delta.farm, start.farm);
  subtract_fields(delta.speculation, start.speculation);
  return delta;
}

namespace {

std::string quantile_ms(const telemetry::HistogramData& histogram, double q) {
  if (histogram.empty()) return "-";
  return common::fmt(static_cast<double>(histogram.quantile(q)) / 1e6, 2);
}

}  // namespace

common::Table EnvServiceStats::summary() const {
  common::Table table({"backend", "kind", "cost", "queries", "hits", "crn", "episodes", "shed",
                       "rpc retries", "rpc failures", "rpc p50 ms", "rpc p99 ms"});
  for (const BackendStats& b : backends) {
    table.add_row({b.name, b.kind == BackendKind::kOnline ? "online" : "offline",
                   common::fmt(b.cost_hint, 0), std::to_string(b.queries),
                   std::to_string(b.cache_hits), std::to_string(b.crn_hits),
                   std::to_string(b.episodes), std::to_string(b.rejected()),
                   std::to_string(b.rpc_retries), std::to_string(b.rpc_failures),
                   quantile_ms(b.rpc_rtt_ns, 0.50), quantile_ms(b.rpc_rtt_ns, 0.99)});
  }
  BackendStats sum;
  for (const BackendStats& b : backends) add_fields(sum, b);
  table.add_row({"TOTAL", "", "", std::to_string(total_queries()), std::to_string(cache_hits),
                 std::to_string(crn_hits), std::to_string(sum.episodes),
                 std::to_string(sum.rejected()), std::to_string(sum.rpc_retries),
                 std::to_string(sum.rpc_failures), quantile_ms(sum.rpc_rtt_ns, 0.50),
                 quantile_ms(sum.rpc_rtt_ns, 0.99)});
  // Service-level serving latency: what a caller of run()/submit() saw,
  // including cache hits (that's the point — the service IS the product).
  table.add_row({"query latency", "p50 " + quantile_ms(query_latency_ns, 0.50) + " ms",
                 "p99 " + quantile_ms(query_latency_ns, 0.99) + " ms",
                 "p999 " + quantile_ms(query_latency_ns, 0.999) + " ms",
                 "max " + quantile_ms(query_latency_ns, 1.0) + " ms", "", "", "", "", "", "",
                 ""});
  if (farm.active) {
    table.add_row({"farm", "serving " + std::to_string(farm.workers_serving),
                   "suspect " + std::to_string(farm.workers_suspect),
                   "joined " + std::to_string(farm.workers_joined),
                   "lost " + std::to_string(farm.workers_lost),
                   "drained " + std::to_string(farm.workers_drained),
                   "redispatched " + std::to_string(farm.episodes_redispatched),
                   "memo migrated " + std::to_string(farm.memo_entries_migrated),
                   "backends migrated " + std::to_string(farm.backends_migrated), "", "", ""});
  }
  // Degradation visibility: only rendered once any overload/fault machinery
  // has fired, so quiet deployments keep the familiar table.
  if (farm.hedges > 0 || farm.breaker_trips > 0 || reconnects > 0 ||
      shed_total > 0 || deadline_rejected > 0 || cancelled_total > 0) {
    table.add_row({"overload", "hedges " + std::to_string(farm.hedges),
                   "hedge wins " + std::to_string(farm.hedge_wins),
                   "breaker trips " + std::to_string(farm.breaker_trips),
                   "reconnects " + std::to_string(reconnects),
                   "shed " + std::to_string(shed_total),
                   "deadline " + std::to_string(deadline_rejected),
                   "cancelled " + std::to_string(cancelled_total), "", "", "", ""});
  }
  if (speculation.active && speculation.launched > 0) {
    table.add_row({"speculation", "launched " + std::to_string(speculation.launched),
                   "hits " + std::to_string(speculation.hits),
                   "cancelled " + std::to_string(speculation.cancelled),
                   "wasted " + std::to_string(speculation.wasted),
                   "hit rate " + common::fmt(speculation.hit_rate(), 2), "", "", "", "", "",
                   ""});
  }
  return table;
}

}  // namespace atlas::env
