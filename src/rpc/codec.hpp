#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "env/backend.hpp"
#include "env/client.hpp"
#include "env/farm_types.hpp"

namespace atlas::rpc {

/// Episode-RPC wire format.
///
/// Every frame payload is:
///
///   u32 magic ("ATLS") | u16 version | u16 type | u64 request_id | body
///
/// with all integers little-endian and all doubles encoded as their raw
/// IEEE-754 bit pattern (u64), so an `EnvQuery`/`EpisodeResult` round-trips
/// BIT-IDENTICALLY — the property that makes a remote episode
/// interchangeable with a local one under the service's memoization.
/// Transports add their own length prefix (see transport.hpp); the codec
/// only sees complete payloads.
///
/// Versioning: every peer is built from one tree, so there is exactly one
/// version. `kWireVersion` is bumped on any layout change, and decoders
/// reject every other version: a worker and client from different builds
/// fail loudly instead of misreading.
inline constexpr std::uint32_t kWireMagic = 0x41544c53u;  // "ATLS"
/// v6: the stats snapshot carries every field of the stats field lists
/// (env/stats_fields.hpp) in list order — per-backend rows, then the
/// service totals and serving histograms — so a counter added to a list
/// reaches the wire with no codec edit.
inline constexpr std::uint16_t kWireVersion = 6;

/// Upper bound on one frame payload; a length prefix beyond this is treated
/// as a corrupted stream, not an allocation request.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint16_t {
  kQuery = 1,          ///< client -> worker: run one EnvQuery
  kResult = 2,         ///< worker -> client: the EpisodeResult
  kError = 3,          ///< worker -> client: execution/decode failed (message string)
  kStatsRequest = 4,   ///< client -> worker: export your stats snapshot (empty body)
  kStatsSnapshot = 5,  ///< worker -> client: EnvServiceStats incl. telemetry histograms
  // --- farm control plane ---------------------------------------------------
  kHello = 6,           ///< controller -> worker: who are you? (empty body)
  kAnnounce = 7,        ///< worker -> controller: WorkerAnnounce (capacity + backends)
  kHeartbeat = 8,       ///< controller -> worker: are you alive? (empty body)
  kHeartbeatAck = 9,    ///< worker -> controller: WorkerHealth gauges
  kMemoExport = 10,     ///< controller -> worker: export memo entries for one backend (u32 id)
  kMemoSnapshot = 11,   ///< worker -> controller: MemoEntrySnapshot list
  kInstallBackend = 12, ///< controller -> worker: BackendInstallRequest (backend + memo push)
  kInstallAck = 13,     ///< worker -> controller: InstallResult
  kCancel = 14,         ///< client -> worker: drop the named request if still queued (no reply)
};

/// Malformed frame: bad magic/version/type, truncated body, trailing bytes.
struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Remote episode failed: transport exhausted its retries, the query timed
/// out, or the worker answered with an error frame.
struct RpcError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- byte-level primitives --------------------------------------------------

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);

  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  bool boolean();
  std::string str();

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// Reject trailing garbage: a well-formed frame is consumed exactly.
  void expect_done() const;

 private:
  void need(std::size_t n) const;
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---- messages ---------------------------------------------------------------

struct FrameHeader {
  MsgType type = MsgType::kQuery;
  std::uint64_t request_id = 0;
};

/// `query.backend` carries the WORKER-side backend id (the client rewrites
/// its own id before encoding).
std::vector<std::uint8_t> encode_query(std::uint64_t request_id, const env::EnvQuery& query);
std::vector<std::uint8_t> encode_result(std::uint64_t request_id,
                                        const env::EpisodeResult& result);
std::vector<std::uint8_t> encode_error(std::uint64_t request_id, const std::string& message);
std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id);
/// Histograms ride as sparse (bucket index, count) pairs — an idle worker's
/// snapshot is a few hundred bytes, not kBucketCount * 8.
std::vector<std::uint8_t> encode_stats_snapshot(std::uint64_t request_id,
                                                const env::EnvServiceStats& stats);

// ---- farm-control messages ----------------------------------------------------

std::vector<std::uint8_t> encode_hello(std::uint64_t request_id);
std::vector<std::uint8_t> encode_announce(std::uint64_t request_id,
                                          const env::WorkerAnnounce& announce);
std::vector<std::uint8_t> encode_heartbeat(std::uint64_t request_id);
std::vector<std::uint8_t> encode_heartbeat_ack(std::uint64_t request_id,
                                               const env::WorkerHealth& health);
std::vector<std::uint8_t> encode_memo_export(std::uint64_t request_id, env::BackendId backend);
std::vector<std::uint8_t> encode_memo_snapshot(std::uint64_t request_id,
                                               const std::vector<env::MemoEntrySnapshot>& memo);
std::vector<std::uint8_t> encode_install_backend(std::uint64_t request_id,
                                                 const env::BackendInstallRequest& request);
std::vector<std::uint8_t> encode_install_ack(std::uint64_t request_id,
                                             const env::InstallResult& result);
std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id);

/// Validates magic + version (exactly kWireVersion) and returns
/// {type, request_id}; the reader is left positioned at the body. Throws
/// CodecError on any mismatch.
FrameHeader decode_header(WireReader& reader);

/// Body decoders; each consumes the reader fully (CodecError otherwise).
/// Element counts are bounded by the bytes left in the frame before any
/// allocation.
env::EnvQuery decode_query_body(WireReader& reader);
env::EpisodeResult decode_result_body(WireReader& reader);
std::string decode_error_body(WireReader& reader);
env::EnvServiceStats decode_stats_snapshot_body(WireReader& reader);
env::WorkerAnnounce decode_announce_body(WireReader& reader);
env::WorkerHealth decode_heartbeat_ack_body(WireReader& reader);
env::BackendId decode_memo_export_body(WireReader& reader);
std::vector<env::MemoEntrySnapshot> decode_memo_snapshot_body(WireReader& reader);
env::BackendInstallRequest decode_install_backend_body(WireReader& reader);
env::InstallResult decode_install_ack_body(WireReader& reader);

}  // namespace atlas::rpc
