#include "rpc/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <unordered_set>
#include <utility>

#include "rpc/codec.hpp"

namespace atlas::rpc {

namespace {

/// Cancel bookkeeping cap per connection: ids of requests whose client gave
/// up. A bounded set — a client that cancels thousands of still-unanswered
/// requests on one connection is reconnecting anyway.
constexpr std::size_t kMaxCancelledIds = 4096;

}  // namespace

EpisodeRpcServer::EpisodeRpcServer(env::EnvService& service, RpcServerOptions options)
    : service_(service), options_(options), listener_(options.port) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

EpisodeRpcServer::~EpisodeRpcServer() { stop(); }

void EpisodeRpcServer::accept_loop() {
  for (;;) {
    auto transport = listener_.accept();
    if (transport == nullptr) return;  // listener closed: shutting down
    std::scoped_lock lock(connections_mutex_);
    if (stopped_) return;  // raced with stop(): drop the late connection
    // Reap connections whose serve loop already finished — a long-running
    // worker sees arbitrarily many reconnects (clients retry on faults), and
    // each dead thread would otherwise hold its stack until stop().
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      if (!c->finished.load(std::memory_order_acquire)) return false;
      if (c->thread.joinable()) c->thread.join();
      return true;
    });
    auto connection = std::make_unique<Connection>();
    Connection* conn = connection.get();
    conn->transport = std::move(transport);
    conn->thread = std::thread([this, conn] {
      serve(*conn->transport);
      conn->finished.store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
}

void EpisodeRpcServer::serve(Transport& transport) {
  // Responses from concurrently-executing episodes interleave on this
  // connection; each write is one frame, serialized by the write mutex and
  // matched up client-side by request id.
  std::mutex write_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t outstanding = 0;  // guarded by done_mutex

  const auto write_frame = [&](const std::vector<std::uint8_t>& frame) {
    try {
      std::scoped_lock lock(write_mutex);
      transport.send(frame);
    } catch (const TransportError&) {
      // Peer vanished mid-response; the read loop will notice EOF.
    }
  };

  // Best-effort cancellation state for THIS connection: request ids whose
  // client gave up. Checked when a query task starts and again before its
  // response is written; a cancelled id gets no reply at all.
  std::mutex cancel_mutex;
  std::unordered_set<std::uint64_t> cancelled;
  const auto is_cancelled = [&](std::uint64_t id) {
    std::scoped_lock lock(cancel_mutex);
    return cancelled.count(id) != 0;
  };

  std::vector<std::uint8_t> frame;
  for (;;) {
    bool got = false;
    try {
      got = transport.recv(frame);
    } catch (const TransportError&) {
      break;  // poisoned stream: drop the connection
    }
    if (!got) break;  // clean EOF

    std::uint64_t request_id = 0;
    env::EnvQuery query;
    try {
      WireReader reader(frame);
      const FrameHeader header = decode_header(reader);
      request_id = header.request_id;
      switch (header.type) {
        case MsgType::kStatsRequest: {
          // Answered inline on the read thread: a stats scrape must not queue
          // behind episodes (it is how operators see WHY the queue is long).
          reader.expect_done();
          env::EnvServiceStats stats = service_.stats();
          stats.rpc_service_ns = service_time_.snapshot();
          write_frame(encode_stats_snapshot(request_id, stats));
          continue;
        }
        case MsgType::kHello: {
          reader.expect_done();
          write_frame(encode_announce(request_id, announce()));
          continue;
        }
        case MsgType::kHeartbeat: {
          reader.expect_done();
          env::WorkerHealth health;
          health.outstanding = service_.outstanding_queries();
          health.cache_entries = service_.cache_size();
          for (const auto& backend : service_.stats().backends) {
            health.episodes += backend.episodes;
          }
          write_frame(encode_heartbeat_ack(request_id, health));
          continue;
        }
        case MsgType::kMemoExport: {
          const env::BackendId backend = decode_memo_export_body(reader);
          auto memo = service_.export_memo(backend);
          auto snapshot = encode_memo_snapshot(request_id, memo);
          // Migration is an optimization: a snapshot too big for one frame
          // ships its warmest-hashing half rather than failing the drain
          // (dropped entries are just recomputed on the new shard).
          while (snapshot.size() > kMaxFrameBytes && !memo.empty()) {
            memo.resize(memo.size() / 2);
            snapshot = encode_memo_snapshot(request_id, memo);
          }
          write_frame(snapshot);
          continue;
        }
        case MsgType::kInstallBackend: {
          const env::BackendInstallRequest request = decode_install_backend_body(reader);
          write_frame(encode_install_ack(request_id, handle_install(request)));
          continue;
        }
        case MsgType::kCancel: {
          reader.expect_done();
          {
            std::scoped_lock lock(cancel_mutex);
            if (cancelled.size() >= kMaxCancelledIds) cancelled.clear();
            cancelled.insert(request_id);
          }
          cancelled_total_.fetch_add(1, std::memory_order_relaxed);
          continue;  // fire-and-forget: cancel frames are never answered
        }
        case MsgType::kQuery:
          query = decode_query_body(reader);
          break;
        default:
          throw CodecError("episode-rpc server: unexpected message type " +
                           std::to_string(static_cast<std::uint16_t>(header.type)));
      }
    } catch (const std::exception& e) {
      write_frame(encode_error(request_id, e.what()));
      continue;
    }

    {
      std::scoped_lock lock(done_mutex);
      ++outstanding;
    }
    {
      std::scoped_lock lock(drain_mutex_);
      ++in_flight_;
    }
    // Dispatch onto the service pool so one connection can pipeline as many
    // concurrent episodes as the worker has cores; the future is tracked via
    // the outstanding counter instead (the response IS the result channel).
    const auto dispatched = std::chrono::steady_clock::now();
    try {
      service_.pool().submit(
        [this, &write_frame, &is_cancelled, &done_mutex, &done_cv, &outstanding, request_id,
         dispatched, q = std::move(query)]() mutable {
          if (!is_cancelled(request_id)) {
            const auto start = std::chrono::steady_clock::now();
            std::vector<std::uint8_t> response;
            try {
              // The deadline budget started ticking when the frame was
              // decoded; spend the pool-queue wait against it so an
              // already-dead query is dropped HERE instead of burning a
              // worker thread on an answer nobody is waiting for.
              bool expired = false;
              if (q.deadline_ms > 0.0) {
                const double waited_ms =
                    std::chrono::duration<double, std::milli>(start - dispatched).count();
                const double remaining = q.deadline_ms - waited_ms;
                if (remaining <= 0.0) {
                  expired = true;
                } else {
                  q.deadline_ms = remaining;
                }
              }
              env::EpisodeResult result;
              if (expired) {
                result.rejected = env::RejectReason::kDeadlineExceeded;
              } else {
                result = service_.run(q);
              }
              response = encode_result(request_id, result);
              if (response.size() > kMaxFrameBytes) {
                // The client must learn WHY there is no result — a silently
                // dropped oversized frame reads as a timeout and gets retried.
                response = encode_error(
                    request_id, "episode result too large for one frame (" +
                                    std::to_string(response.size()) + " bytes > " +
                                    std::to_string(kMaxFrameBytes) + "); shorten the episode");
              }
            } catch (const std::exception& e) {
              response = encode_error(request_id, e.what());
            }
            const auto elapsed = std::chrono::steady_clock::now() - start;
            service_time_.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
            // A cancel that landed while the episode ran means the client
            // stopped listening for this id: suppress the response too.
            if (!is_cancelled(request_id)) write_frame(response);
          }
          {
            // Notify UNDER the lock: serve() destroys done_cv the moment the
            // final wait sees outstanding == 0, so the notify must complete
            // before that waiter can reacquire the mutex and return.
            std::scoped_lock lock(done_mutex);
            --outstanding;
            done_cv.notify_all();
          }
          {
            std::scoped_lock lock(drain_mutex_);
            --in_flight_;
            drain_cv_.notify_all();
          }
        });
    } catch (...) {
      // Enqueue failed (bad_alloc): the task's decrement will never run; a
      // leaked increment would hang the final wait (and stop()'s join).
      {
        std::scoped_lock lock(done_mutex);
        --outstanding;
      }
      {
        std::scoped_lock lock(drain_mutex_);
        --in_flight_;
        drain_cv_.notify_all();
      }
      write_frame(encode_error(request_id, "worker failed to enqueue the episode"));
    }
  }

  // The read loop is done, but dispatched episodes still reference this
  // frame's locals; wait them out before returning.
  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return outstanding == 0; });
}

env::WorkerAnnounce EpisodeRpcServer::announce() const {
  env::WorkerAnnounce announce;
  announce.build = options_.build;
  announce.wire_version = kWireVersion;
  announce.threads = static_cast<std::uint32_t>(service_.threads());
  announce.cache_capacity = service_.cache_capacity();
  const std::size_t n = service_.backend_count();
  announce.backends.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    const auto backend_id = static_cast<env::BackendId>(id);
    env::WorkerBackendInfo info;
    info.name = service_.backend_name(backend_id);
    info.kind = service_.backend_kind(backend_id);
    info.cost_hint = service_.backend_cost_hint(backend_id);
    info.accepts_sim_params = service_.backend_accepts_sim_params(backend_id);
    info.params_digest = backend_digest(backend_id);
    announce.backends.push_back(std::move(info));
  }
  return announce;
}

void EpisodeRpcServer::set_backend_digest(env::BackendId id, std::uint64_t digest) {
  std::scoped_lock lock(digests_mutex_);
  if (digests_.size() <= id) digests_.resize(id + 1, 0);
  digests_[id] = digest;
}

std::uint64_t EpisodeRpcServer::backend_digest(env::BackendId id) const {
  std::scoped_lock lock(digests_mutex_);
  return id < digests_.size() ? digests_[id] : 0;
}

env::InstallResult EpisodeRpcServer::handle_install(const env::BackendInstallRequest& request) {
  env::InstallResult result;
  if (request.target_backend >= 0) {
    // Memo-merge into a backend this worker already hosts.
    result.backend = static_cast<env::BackendId>(request.target_backend);
    result.imported = service_.import_memo(result.backend, request.memo);
    return result;
  }
  // Fresh registration from the descriptor. Only backend shapes a worker can
  // construct from data are installable: parameterized simulators and the
  // real-network surrogate. Anything else must be wired at worker startup.
  const auto& d = request.descriptor;
  if (d.kind == env::BackendKind::kOffline && d.accepts_sim_params) {
    result.backend = service_.add_simulator(
        request.sim_params.value_or(env::SimParams::defaults()), d.name);
  } else if (d.kind == env::BackendKind::kOnline && !d.accepts_sim_params) {
    result.backend = service_.add_real_network(d.name);
  } else {
    throw RpcError("episode-rpc server: backend '" + d.name +
                   "' is not installable from a descriptor");
  }
  set_backend_digest(result.backend, d.params_digest);
  installs_total_.fetch_add(1, std::memory_order_relaxed);
  result.imported = service_.import_memo(result.backend, request.memo);
  return result;
}

void EpisodeRpcServer::stop() {
  {
    std::scoped_lock lock(connections_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  listener_.close();
  if (acceptor_.joinable()) acceptor_.join();
  // Graceful drain: episodes already dispatched get to finish and FLUSH their
  // responses before we yank the connections — a worker asked to shut down
  // mid-batch should not turn accepted work into client-side timeouts. The
  // wait is bounded: a wedged episode must not make stop() hang forever.
  {
    std::unique_lock lock(drain_mutex_);
    drain_cv_.wait_for(lock, std::chrono::milliseconds(options_.drain_timeout_ms),
                       [&] { return in_flight_ == 0; });
  }
  // After the acceptor is joined no new connections can appear; close every
  // transport (wakes its serve loop) and join the connection threads.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::scoped_lock lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& conn : connections) conn->transport->close();
  for (auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace atlas::rpc
