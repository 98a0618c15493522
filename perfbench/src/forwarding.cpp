#include "forwarding.hpp"

#include <ctime>

namespace perfbench {

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

TimedBackend::TimedBackend(std::shared_ptr<const env::EnvBackend> inner,
                           std::shared_ptr<ExecTimes> times)
    : inner_(std::move(inner)), times_(std::move(times)) {}

env::EpisodeResult TimedBackend::timed(std::uint64_t start, env::EpisodeResult result) const {
  const std::uint64_t elapsed = now_ns() - start;
  times_->exec_ns.record(elapsed);
  times_->busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
  times_->episodes.fetch_add(1, std::memory_order_relaxed);
  times_->frames.fetch_add(result.frames_completed, std::memory_order_relaxed);
  return result;
}

env::EpisodeResult TimedBackend::execute(const env::EnvQuery& query) const {
  const std::uint64_t start = now_ns();
  return timed(start, inner_->execute(query));
}

env::EpisodeResult TimedBackend::execute_cancellable(const env::EnvQuery& query,
                                                     const env::CancelToken& cancel) const {
  const std::uint64_t start = now_ns();
  return timed(start, inner_->execute_cancellable(query, cancel));
}

TracingClient::TracingClient(env::EnvClient& inner)
    : inner_(inner),
      exec_{std::make_shared<ExecTimes>(), std::make_shared<ExecTimes>()} {}

env::BackendId TracingClient::register_backend(std::shared_ptr<const env::EnvBackend> backend) {
  auto& times = exec_[backend->kind() == env::BackendKind::kOnline ? 1 : 0];
  return inner_.register_backend(std::make_shared<TimedBackend>(std::move(backend), times));
}

env::EpisodeResult TracingClient::run(const env::EnvQuery& query) {
  const std::uint64_t start = now_ns();
  env::EpisodeResult result = inner_.run(query);
  blocking_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  return result;
}

env::QueryHandle TracingClient::submit(env::EnvQuery query) {
  const std::uint64_t start = now_ns();
  env::QueryHandle handle = inner_.submit(std::move(query));
  submit_ns_.record(now_ns() - start);
  return handle;
}

env::QueryHandle TracingClient::submit_cancellable(
    env::EnvQuery query, std::shared_ptr<const env::CancelToken> cancel) {
  const std::uint64_t start = now_ns();
  env::QueryHandle handle = inner_.submit_cancellable(std::move(query), std::move(cancel));
  submit_ns_.record(now_ns() - start);
  return handle;
}

std::vector<env::EpisodeResult> TracingClient::run_batch(std::span<const env::EnvQuery> queries) {
  const std::uint64_t start = now_ns();
  std::vector<env::EpisodeResult> results = inner_.run_batch(queries);
  blocking_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  return results;
}

}  // namespace perfbench
