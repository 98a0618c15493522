#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "env/environment.hpp"
#include "env/episode.hpp"
#include "env/sim_params.hpp"
#include "env/slice_config.hpp"
#include "env/stats_fields.hpp"

namespace atlas::env {

/// How queries against a backend are metered. Every Atlas stage is built on
/// the same loop — query an environment, observe, update a model — but the
/// COST of a query differs wildly: simulator episodes are free and cacheable,
/// while every real-network episode is served to live slice users (SLA
/// exposure, the paper's sample-efficiency currency).
enum class BackendKind {
  kOffline,  ///< Cheap, parallel, memoizable (simulator / multi-slice sim).
  kOnline,   ///< Metered: each query is a real interaction; never cached.
};

/// Opaque handle to a registered backend. Index into a service registry.
using BackendId = std::uint32_t;

/// Admission-control priority of one query. When a service's queue depth
/// crosses the soft shed watermark, kSpeculative work goes first (optimistic
/// prefetch episodes are just warm cache entries — dropping one costs
/// nothing); past the hard watermark every offline query sheds. Metered
/// (online) queries are NEVER shed: they are the paper's SLA-exposure
/// currency and each one was deliberately spent.
enum class QueryPriority : std::uint8_t {
  kSpeculative = 0,  ///< Optimistic/prefetch work: first to shed.
  kNormal = 1,       ///< Regular stage/baseline queries.
};

/// Cooperative cancellation token for hedged execution: the owner flips it,
/// a cancellable backend observes it mid-wait and abandons the attempt by
/// throwing EpisodeCancelled.
using CancelToken = std::atomic<bool>;

/// Thrown by a cancellable execute when its CancelToken fired. Distinct from
/// a real failure: a hedging loser's cancellation is NOT a worker fault and
/// must not trip circuit breakers or the farm health machine.
struct EpisodeCancelled : std::runtime_error {
  EpisodeCancelled() : std::runtime_error("episode cancelled (hedge loser)") {}
};

/// One environment query: which backend, which configuration interval.
/// `sim_params` optionally overrides the Table 3 simulation parameters for
/// this query only (Stage 1 evaluates a different parameter vector per
/// query); it is valid only on backends that accept overrides.
struct EnvQuery {
  BackendId backend = 0;
  SliceConfig config;
  Workload workload;
  std::optional<SimParams> sim_params;
  /// The seed came from a common-random-numbers plan (see env/seed_plan.hpp):
  /// a cache hit on this query is deliberate cross-iteration episode reuse,
  /// reported separately as `crn_hits`. Not part of the memoization key — it
  /// annotates the query, it does not change the episode.
  bool crn = false;
  /// Relative deadline budget in milliseconds, measured from the moment the
  /// query enters a service (0 = no deadline). If it elapses before the
  /// episode starts executing, the service returns a typed
  /// RejectReason::kDeadlineExceeded result instead of stale work; remote
  /// backends additionally cap their RPC wait at the remaining budget and
  /// propagate it over the wire so the worker can drop
  /// already-dead queries from ITS queue too. Like `crn`, not part of the
  /// memoization key — it shapes serving, not the episode.
  double deadline_ms = 0.0;
  /// Shed ordering under overload; see QueryPriority. Not part of the
  /// memoization key.
  QueryPriority priority = QueryPriority::kNormal;
};

/// BackendStats counters the service maintains per backend (atomics in
/// EnvService::Backend). Rejections are queries answered with a typed
/// RejectReason instead of an episode; for cacheable workloads the
/// exact-accounting invariant is `cache_hits + cache_misses + shedded +
/// deadline_rejected + cancelled == queries`.
#define ATLAS_BACKEND_SERVICE_COUNTERS(X)                                          \
  X(queries, kCounter)           /* answered: hit, executed, or rejected */        \
  X(cache_hits, kCounter)        /* memo table or a coalesced in-flight episode */ \
  X(cache_misses, kCounter)      /* unique executions of cacheable queries */      \
  X(crn_hits, kCounter)          /* cache_hits on CRN-planned queries: episodes */ \
                                 /* saved by cross-iteration seed reuse */         \
  X(episodes, kCounter)          /* environment executions */                      \
  X(shedded, kCounter)           /* load-shed at admission (watermark) */          \
  X(deadline_rejected, kCounter) /* deadline elapsed before execution */           \
  X(cancelled, kCounter)         /* caller cancelled before/while executing */
/// BackendStats fields the backend itself reports through fill_stats
/// (remote backends only; zero for local ones).
#define ATLAS_BACKEND_RPC_FIELDS(X)                                               \
  X(rpc_retries, kCounter)    /* transport-level retries */                       \
  X(rpc_failures, kCounter)   /* queries that exhausted retries or hard-failed */ \
  X(rpc_reconnects, kCounter) /* successful connection re-establishments */       \
  X(rpc_rtt_ns, kHistogram)   /* round-trip latency of successful episode RPCs */
#define ATLAS_BACKEND_FIELDS(X) ATLAS_BACKEND_SERVICE_COUNTERS(X) ATLAS_BACKEND_RPC_FIELDS(X)

/// Per-backend accounting. `queries` counts everything routed through the
/// service; `episodes` counts actual environment executions (for online
/// backends the two are equal — that equality IS the SLA-exposure meter).
struct BackendStats {
  std::string name;
  BackendKind kind = BackendKind::kOffline;
  ATLAS_BACKEND_SERVICE_COUNTERS(ATLAS_STATS_FIELD)
  double cost_hint = 1.0;  ///< Relative episode recomputation cost.
  ATLAS_BACKEND_RPC_FIELDS(ATLAS_STATS_FIELD)
  ATLAS_STATS_VISITOR(ATLAS_BACKEND_FIELDS)

  /// Total typed rejections (shed + deadline + cancelled).
  std::uint64_t rejected() const noexcept { return shedded + deadline_rejected + cancelled; }
};

/// The polymorphic execution target behind a `BackendId`: an in-process
/// environment, a remote episode-RPC worker, a testbed — anything that can
/// turn an `EnvQuery` into an `EpisodeResult`. The paper treats the
/// simulator, the real network, and testbed farms as interchangeable query
/// targets that differ only in COST; this interface is that contract.
///
/// Implementations must be const-reentrant: the service calls `execute`
/// concurrently from a thread pool (internal mutable state needs its own
/// synchronization).
class EnvBackend {
 public:
  virtual ~EnvBackend() = default;

  /// Run one configuration interval described by `query`. The query's
  /// `backend` field is the CALLER's id for this backend and is ignored here
  /// (remote backends rewrite it to the worker-side id before forwarding).
  virtual EpisodeResult execute(const EnvQuery& query) const = 0;

  /// Cancellable variant used by hedged dispatch: implementations that can
  /// abandon an in-flight attempt (remote backends waiting on an RPC reply)
  /// poll `cancel` and throw EpisodeCancelled when it fires. The default
  /// ignores the token — a local episode is milliseconds of CPU, cheaper to
  /// finish than to interrupt, and its result is bit-identical either way.
  virtual EpisodeResult execute_cancellable(const EnvQuery& query,
                                            const CancelToken& cancel) const {
    (void)cancel;
    return execute(query);
  }

  virtual BackendKind kind() const noexcept = 0;
  virtual const std::string& name() const noexcept = 0;

  /// Relative cost of recomputing one episode (1.0 = in-process simulator).
  /// Cost-aware cache eviction prefers evicting cheap entries, so a remote
  /// or testbed episode (orders of magnitude pricier) stays memoized longer.
  virtual double cost_hint() const noexcept { return 1.0; }

  /// Whether per-query `SimParams` overrides are meaningful here (Stage 1
  /// sends one parameter vector per query). Only simulator-like backends
  /// should accept them; metered backends must reject them.
  virtual bool accepts_sim_params() const noexcept { return false; }

  /// Add backend-specific fields (rpc_retries / rpc_failures) to a stats
  /// snapshot; counters maintained by the service are already filled in.
  virtual void fill_stats(BackendStats& stats) const { (void)stats; }

  /// Zero any backend-owned counters reported via fill_stats, so
  /// EnvService::reset_stats() clears the WHOLE BackendStats snapshot
  /// (per-phase accounting must not inherit last phase's rpc failures).
  /// Const for the same reason execute() is: called through the shared
  /// registry pointer; implementations use their own synchronization.
  virtual void reset_stats() const {}
};

/// An in-process `NetworkEnvironment` behind the `EnvBackend` contract —
/// what `EnvService::add_simulator` / `add_real_network` / `add_multi_slice`
/// register under the hood.
class LocalBackend final : public EnvBackend {
 public:
  LocalBackend(std::shared_ptr<const NetworkEnvironment> environment, std::string name,
               BackendKind kind);

  EpisodeResult execute(const EnvQuery& query) const override;
  BackendKind kind() const noexcept override { return kind_; }
  const std::string& name() const noexcept override { return name_; }
  bool accepts_sim_params() const noexcept override { return is_simulator_; }

  const NetworkEnvironment& environment() const noexcept { return *env_; }

 private:
  std::shared_ptr<const NetworkEnvironment> env_;
  std::string name_;
  BackendKind kind_;
  bool is_simulator_;  ///< Only Simulator backends honor sim_params overrides.
};

}  // namespace atlas::env
