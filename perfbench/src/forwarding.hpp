#pragma once

/// Tracing from outside the program: a forwarding `env::EnvClient` that
/// times every call into the service layer and wraps every registered
/// backend — including the stage-1 and augmented simulators `AtlasPipeline`
/// registers itself — in a forwarding `env::EnvBackend` that times
/// `execute`. Nothing inside `src/` is touched; with tracing off the
/// benchmark talks to the service directly.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "env/client.hpp"
#include "telemetry/histogram.hpp"

namespace perfbench {

namespace env = atlas::env;

/// Monotonic nanoseconds (steady clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// CPU time consumed by the calling thread, in seconds.
double thread_cpu_s();
/// CPU time consumed by every thread of the process, in seconds.
double process_cpu_s();

/// Episode-execution timings of every backend of one kind.
struct ExecTimes {
  atlas::telemetry::Histogram exec_ns;  ///< Wall time of each execute call.
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> episodes{0};
  std::atomic<std::uint64_t> frames{0};  ///< Frames completed across episodes.
};

/// Forwarding backend: times `execute` / `execute_cancellable` of the wrapped
/// backend and forwards every other virtual unchanged.
class TimedBackend final : public env::EnvBackend {
 public:
  TimedBackend(std::shared_ptr<const env::EnvBackend> inner, std::shared_ptr<ExecTimes> times);

  env::EpisodeResult execute(const env::EnvQuery& query) const override;
  env::EpisodeResult execute_cancellable(const env::EnvQuery& query,
                                         const env::CancelToken& cancel) const override;
  env::BackendKind kind() const noexcept override { return inner_->kind(); }
  const std::string& name() const noexcept override { return inner_->name(); }
  double cost_hint() const noexcept override { return inner_->cost_hint(); }
  bool accepts_sim_params() const noexcept override { return inner_->accepts_sim_params(); }
  void fill_stats(env::BackendStats& stats) const override { inner_->fill_stats(stats); }
  void reset_stats() const override { inner_->reset_stats(); }

 private:
  env::EpisodeResult timed(std::uint64_t start, env::EpisodeResult result) const;

  std::shared_ptr<const env::EnvBackend> inner_;
  std::shared_ptr<ExecTimes> times_;
};

/// Forwarding client: every virtual of `env::EnvClient` goes to `inner`.
/// Registrations are wrapped in a TimedBackend (one ExecTimes per backend
/// kind); `submit` / `submit_cancellable` time the enqueue, `run` /
/// `run_batch` time the blocking call.
class TracingClient final : public env::EnvClient {
 public:
  explicit TracingClient(env::EnvClient& inner);

  using env::EnvClient::register_backend;
  env::BackendId register_backend(std::shared_ptr<const env::EnvBackend> backend) override;
  std::size_t backend_count() const override { return inner_.backend_count(); }
  const std::string& backend_name(env::BackendId id) const override {
    return inner_.backend_name(id);
  }
  env::BackendKind backend_kind(env::BackendId id) const override {
    return inner_.backend_kind(id);
  }

  using env::EnvClient::run;
  env::EpisodeResult run(const env::EnvQuery& query) override;
  env::QueryHandle submit(env::EnvQuery query) override;
  env::QueryHandle submit_cancellable(env::EnvQuery query,
                                      std::shared_ptr<const env::CancelToken> cancel) override;
  std::vector<env::EpisodeResult> run_batch(std::span<const env::EnvQuery> queries) override;

  env::BackendStats backend_stats(env::BackendId id) const override {
    return inner_.backend_stats(id);
  }
  env::EnvServiceStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }
  std::size_t outstanding_queries() const override { return inner_.outstanding_queries(); }
  void attach_speculation(std::shared_ptr<const env::SpeculationState> speculation) override {
    inner_.attach_speculation(std::move(speculation));
  }
  std::size_t cache_size() const override { return inner_.cache_size(); }
  void clear_cache() override { inner_.clear_cache(); }

  /// Execution timings of the wrapped backends of one kind.
  const ExecTimes& exec(env::BackendKind kind) const {
    return *exec_[kind == env::BackendKind::kOnline ? 1 : 0];
  }
  /// Time spent inside submit / submit_cancellable.
  const atlas::telemetry::Histogram& submit_ns() const { return submit_ns_; }
  /// Time the caller spent blocked in run / run_batch.
  std::uint64_t blocking_ns() const { return blocking_ns_.load(std::memory_order_relaxed); }

 private:
  env::EnvClient& inner_;
  std::array<std::shared_ptr<ExecTimes>, 2> exec_;  ///< [offline, online]
  atlas::telemetry::Histogram submit_ns_;
  std::atomic<std::uint64_t> blocking_ns_{0};
};

}  // namespace perfbench
