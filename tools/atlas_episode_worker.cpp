// atlas_episode_worker: hosts an EnvService behind the episode-RPC so a
// ShardRouter on another host can mix this worker's backends with local ones
// transparently (same BackendId handle, same bit-identical results).
//
// Usage:
//   atlas_episode_worker [--port N] [--port-file PATH] [--threads N]
//                        [--cache-capacity N] [--simulators N]
//                        [--real-networks N] [--drain-timeout-ms N] [--quiet]
//
//   --port N            TCP port on 127.0.0.1 (default 0 = ephemeral; the
//                       chosen port is printed and written to --port-file).
//   --port-file PATH    Write the bound port to PATH (atomic rename), so a
//                       spawning parent can poll for readiness.
//   --threads N         EnvService worker threads (0 = hardware default).
//   --cache-capacity N  Episode memo entries (0 disables worker-side cache).
//   --simulators N      Register N default-parameter simulators as worker
//                       backend ids 0..N-1 (default 1). Stage-1 queries
//                       carry per-query SimParams overrides, so one default
//                       simulator serves a whole calibration sweep.
//   --real-networks N   Register N testbed surrogates after the simulators.
//   --shed-watermark N  Queue-depth admission watermark: past N outstanding
//                       queries, speculative offline work is shed with a
//                       typed rejection; past 2N everything offline sheds
//                       (default 0 = never shed).
//   --drain-timeout-ms N  On SIGINT/SIGTERM, wait up to N ms for in-flight
//                       episodes to finish and flush before closing
//                       connections (default 5000; 0 = hard close).
//   --quiet             Suppress the startup banner (the port line is
//                       always printed: parents parse it).
//
// Exit status: 0 clean shutdown, 1 startup failure (bind/port-file, with a
// diagnostic on stderr), 2 usage error.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "env/env_service.hpp"
#include "rpc/codec.hpp"
#include "rpc/server.hpp"

namespace {

struct WorkerOptions {
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t threads = 0;
  std::size_t cache_capacity = 65536;
  int simulators = 1;
  int real_networks = 0;
  std::size_t shed_watermark = 0;
  std::uint32_t drain_timeout_ms = 5000;
  bool quiet = false;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--port N] [--port-file PATH] [--threads N] [--cache-capacity N] "
               "[--simulators N] [--real-networks N] [--shed-watermark N] "
               "[--drain-timeout-ms N] [--quiet]\n",
               argv0);
}

[[noreturn]] void usage_error(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  print_usage(stderr, argv0);
  std::exit(2);
}

long parse_long(const char* argv0, const std::string& flag, const char* value) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    usage_error(argv0, flag + " expects a non-negative integer, got '" + value + "'");
  }
  return parsed;
}

WorkerOptions parse_args(int argc, char** argv) {
  WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(argv[0], flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--port") {
      const long port = parse_long(argv[0], flag, next());
      if (port > 65535) usage_error(argv[0], "--port must be <= 65535");
      options.port = static_cast<std::uint16_t>(port);
    } else if (flag == "--port-file") {
      options.port_file = next();
    } else if (flag == "--threads") {
      options.threads = static_cast<std::size_t>(parse_long(argv[0], flag, next()));
    } else if (flag == "--cache-capacity") {
      options.cache_capacity = static_cast<std::size_t>(parse_long(argv[0], flag, next()));
    } else if (flag == "--simulators") {
      options.simulators = static_cast<int>(parse_long(argv[0], flag, next()));
    } else if (flag == "--real-networks") {
      options.real_networks = static_cast<int>(parse_long(argv[0], flag, next()));
    } else if (flag == "--shed-watermark") {
      options.shed_watermark = static_cast<std::size_t>(parse_long(argv[0], flag, next()));
    } else if (flag == "--drain-timeout-ms") {
      options.drain_timeout_ms = static_cast<std::uint32_t>(parse_long(argv[0], flag, next()));
    } else if (flag == "--quiet") {
      options.quiet = true;
    } else if (flag == "--help" || flag == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      usage_error(argv[0], "unknown flag '" + flag + "'");
    }
  }
  if (options.simulators + options.real_networks == 0) {
    usage_error(argv[0], "at least one backend is required");
  }
  return options;
}

/// Startup failure that should exit(1) with a diagnostic, not a silent abort.
struct StartupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};


void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw StartupError("cannot write port file " + tmp + ": " + std::strerror(errno));
  }
  std::fprintf(f, "%u\n", static_cast<unsigned>(port));
  std::fclose(f);
  // Atomic publish: a polling parent never reads a half-written file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw StartupError("cannot rename " + tmp + " to " + path + ": " + std::strerror(errno));
  }
}

int run_worker(const WorkerOptions& options) {
  // Block the shutdown signals BEFORE any thread spawns, so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  atlas::env::EnvServiceOptions service_options;
  service_options.threads = options.threads;
  service_options.cache_capacity = options.cache_capacity;
  service_options.shed_watermark = options.shed_watermark;
  atlas::env::EnvService service(service_options);
  for (int i = 0; i < options.simulators; ++i) {
    service.add_simulator(atlas::env::SimParams::defaults(), "sim-" + std::to_string(i));
  }
  for (int i = 0; i < options.real_networks; ++i) {
    service.add_real_network("real-" + std::to_string(i));
  }

  atlas::rpc::RpcServerOptions server_options;
  server_options.port = options.port;
  server_options.drain_timeout_ms = options.drain_timeout_ms;
  atlas::rpc::EpisodeRpcServer server(service, server_options);
  // Announce the placement fingerprint: same flags -> same digest
  // -> a FarmController groups this worker's simulators with its peers'.
  for (int i = 0; i < options.simulators; ++i) {
    server.set_backend_digest(static_cast<atlas::env::BackendId>(i),
                              atlas::env::params_digest(atlas::env::SimParams::defaults()));
  }

  if (!options.quiet) {
    std::printf("atlas_episode_worker: %d simulator(s), %d real-network backend(s), "
                "%zu thread(s), cache %zu\n",
                options.simulators, options.real_networks, service.threads(),
                options.cache_capacity);
  }
  // The port line is the machine-readable readiness signal; always printed.
  std::printf("atlas_episode_worker listening on 127.0.0.1:%u (wire v%u)\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(atlas::rpc::kWireVersion));
  std::fflush(stdout);
  if (!options.port_file.empty()) write_port_file(options.port_file, server.port());

  int sig = 0;
  sigwait(&sigs, &sig);
  if (!options.quiet) {
    std::printf("atlas_episode_worker: %s received, draining in-flight episodes\n",
                strsignal(sig));
    std::fflush(stdout);
  }
  // stop() drains dispatched episodes (bounded by --drain-timeout-ms) before
  // closing connections, so accepted work becomes responses, not timeouts.
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkerOptions options = parse_args(argc, argv);
  try {
    return run_worker(options);
  } catch (const std::exception& e) {
    // A worker that cannot start (port already bound, unwritable port file)
    // must say so and exit non-zero — a spawning parent polls the port file
    // and would otherwise wait forever on a silently-dead child.
    std::fprintf(stderr, "atlas_episode_worker: fatal: %s\n", e.what());
    return 1;
  }
}
