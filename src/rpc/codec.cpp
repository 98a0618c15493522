#include "rpc/codec.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace atlas::rpc {

// ---- WireWriter -------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void WireWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

// ---- WireReader -------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (pos_ + n > bytes_.size()) {
    throw CodecError("rpc codec: truncated frame (needed " + std::to_string(n) + " bytes, " +
                     std::to_string(bytes_.size() - pos_) + " left)");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(bytes_[pos_]) |
                    static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::f64() { return std::bit_cast<double>(u64()); }

bool WireReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) throw CodecError("rpc codec: bad boolean byte");
  return v == 1;
}

std::string WireReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

void WireReader::expect_done() const {
  if (pos_ != bytes_.size()) {
    throw CodecError("rpc codec: " + std::to_string(bytes_.size() - pos_) +
                     " trailing bytes after message body");
  }
}

// ---- message bodies ---------------------------------------------------------

namespace {

void put_header(WireWriter& w, MsgType type, std::uint64_t request_id) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(request_id);
}

void put_slice_config(WireWriter& w, const env::SliceConfig& c) {
  w.f64(c.bandwidth_ul);
  w.f64(c.bandwidth_dl);
  w.f64(c.mcs_offset_ul);
  w.f64(c.mcs_offset_dl);
  w.f64(c.backhaul_mbps);
  w.f64(c.cpu_ratio);
}

env::SliceConfig get_slice_config(WireReader& r) {
  env::SliceConfig c;
  c.bandwidth_ul = r.f64();
  c.bandwidth_dl = r.f64();
  c.mcs_offset_ul = r.f64();
  c.mcs_offset_dl = r.f64();
  c.backhaul_mbps = r.f64();
  c.cpu_ratio = r.f64();
  return c;
}

void put_workload(WireWriter& w, const env::Workload& wl) {
  w.i32(wl.traffic);
  w.f64(wl.duration_ms);
  w.f64(wl.distance_m);
  w.boolean(wl.random_walk);
  w.i32(wl.extra_users);
  w.boolean(wl.collect_traces);
  w.u64(wl.seed);
}

env::Workload get_workload(WireReader& r) {
  env::Workload wl;
  wl.traffic = r.i32();
  wl.duration_ms = r.f64();
  wl.distance_m = r.f64();
  wl.random_walk = r.boolean();
  wl.extra_users = r.i32();
  wl.collect_traces = r.boolean();
  wl.seed = r.u64();
  return wl;
}

void put_sim_params(WireWriter& w, const env::SimParams& p) {
  w.f64(p.baseline_loss_db);
  w.f64(p.enb_noise_figure_db);
  w.f64(p.ue_noise_figure_db);
  w.f64(p.backhaul_bw_mbps);
  w.f64(p.backhaul_delay_ms);
  w.f64(p.compute_time_ms);
  w.f64(p.loading_time_ms);
}

env::SimParams get_sim_params(WireReader& r) {
  env::SimParams p;
  p.baseline_loss_db = r.f64();
  p.enb_noise_figure_db = r.f64();
  p.ue_noise_figure_db = r.f64();
  p.backhaul_bw_mbps = r.f64();
  p.backhaul_delay_ms = r.f64();
  p.compute_time_ms = r.f64();
  p.loading_time_ms = r.f64();
  return p;
}

void put_trace(WireWriter& w, const env::FrameTrace& t) {
  w.u64(t.id);
  w.f64(t.created_ms);
  w.f64(t.sent_ms);
  w.f64(t.ul_done_ms);
  w.f64(t.edge_in_ms);
  w.f64(t.compute_start_ms);
  w.f64(t.compute_done_ms);
  w.f64(t.enb_dl_ms);
  w.f64(t.completed_ms);
}

env::FrameTrace get_trace(WireReader& r) {
  env::FrameTrace t;
  t.id = r.u64();
  t.created_ms = r.f64();
  t.sent_ms = r.f64();
  t.ul_done_ms = r.f64();
  t.edge_in_ms = r.f64();
  t.compute_start_ms = r.f64();
  t.compute_done_ms = r.f64();
  t.enb_dl_ms = r.f64();
  t.completed_ms = r.f64();
  return t;
}

/// Element-count sanity bound: `n` elements of at least `min_bytes` each
/// cannot fit in what is left of the frame, so the count is corruption, not
/// data. Checked before any reserve, so a flipped length byte never turns
/// into an allocation.
std::size_t checked_count(const WireReader& r, std::uint64_t n, std::size_t min_bytes,
                          const char* what) {
  if (n > r.remaining() / min_bytes) {
    throw CodecError(std::string("rpc codec: implausible ") + what + " count " +
                     std::to_string(n) + " (" + std::to_string(r.remaining()) +
                     " bytes left)");
  }
  return static_cast<std::size_t>(n);
}

/// Bytes a default-constructed T encodes to: its minimum wire size (empty
/// strings and lists, zero counts), the floor checked_count divides by.
template <typename T, typename Put>
std::size_t min_wire_size(Put put) {
  WireWriter w;
  put(w, T{});
  return w.take().size();
}

/// Sparse histogram: u32 occupied-bucket count | (u32 index, u64 count)* |
/// u64 sum. Merges bit-exactly (bucket counts are integers).
void put_histogram(WireWriter& w, const telemetry::HistogramData& h) {
  const auto& counts = h.counts();
  std::uint32_t occupied = 0;
  for (std::uint64_t c : counts) occupied += c != 0 ? 1 : 0;
  w.u32(occupied);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.u64(counts[i]);
  }
  w.u64(h.sum());
}

telemetry::HistogramData get_histogram(WireReader& r) {
  const std::size_t occupied = checked_count(r, r.u32(), 12, "histogram bucket");
  if (occupied == 0) {
    if (r.u64() != 0) throw CodecError("rpc codec: empty histogram with nonzero sum");
    return {};
  }
  std::vector<std::uint64_t> counts(telemetry::kBucketCount, 0);
  for (std::size_t i = 0; i < occupied; ++i) {
    const std::uint32_t index = r.u32();
    if (index >= telemetry::kBucketCount) {
      throw CodecError("rpc codec: histogram bucket index out of range");
    }
    counts[index] = r.u64();
  }
  return telemetry::HistogramData::from_counts(std::move(counts), r.u64());
}

/// EpisodeResult body, shared by kResult frames and memo-entry snapshots —
/// one layout so a migrated memo entry round-trips exactly like a served one.
void put_result_body(WireWriter& w, const env::EpisodeResult& result) {
  w.u64(result.latencies_ms.size());
  for (double v : result.latencies_ms) w.f64(v);
  w.u64(result.frames_completed);
  w.i32(result.ul_tb_total);
  w.i32(result.ul_tb_err);
  w.i32(result.dl_tb_total);
  w.i32(result.dl_tb_err);
  w.u64(result.traces.size());
  for (const auto& t : result.traces) put_trace(w, t);
}

env::EpisodeResult get_result_body(WireReader& r) {
  env::EpisodeResult result;
  const std::size_t latencies = checked_count(r, r.u64(), 8, "latency");
  result.latencies_ms.reserve(latencies);
  for (std::size_t i = 0; i < latencies; ++i) result.latencies_ms.push_back(r.f64());
  result.frames_completed = static_cast<std::size_t>(r.u64());
  result.ul_tb_total = r.i32();
  result.ul_tb_err = r.i32();
  result.dl_tb_total = r.i32();
  result.dl_tb_err = r.i32();
  static const std::size_t kTraceBytes = min_wire_size<env::FrameTrace>(put_trace);
  const std::size_t traces = checked_count(r, r.u64(), kTraceBytes, "trace");
  result.traces.reserve(traces);
  for (std::size_t i = 0; i < traces; ++i) result.traces.push_back(get_trace(r));
  return result;
}

void put_backend_info(WireWriter& w, const env::WorkerBackendInfo& info) {
  w.str(info.name);
  w.u8(info.kind == env::BackendKind::kOnline ? 1 : 0);
  w.f64(info.cost_hint);
  w.boolean(info.accepts_sim_params);
  w.u64(info.params_digest);
}

env::WorkerBackendInfo get_backend_info(WireReader& r) {
  env::WorkerBackendInfo info;
  info.name = r.str();
  info.kind = r.u8() == 1 ? env::BackendKind::kOnline : env::BackendKind::kOffline;
  info.cost_hint = r.f64();
  info.accepts_sim_params = r.boolean();
  info.params_digest = r.u64();
  return info;
}

void put_memo_entry(WireWriter& w, const env::MemoEntrySnapshot& entry) {
  w.u64(entry.key.size());
  for (double v : entry.key) w.f64(v);
  w.f64(entry.cost);
  put_result_body(w, entry.result);
}

env::MemoEntrySnapshot get_memo_entry(WireReader& r) {
  env::MemoEntrySnapshot entry;
  const std::size_t key_len = checked_count(r, r.u64(), 8, "memo key");
  entry.key.reserve(key_len);
  for (std::size_t i = 0; i < key_len; ++i) entry.key.push_back(r.f64());
  entry.cost = r.f64();
  entry.result = get_result_body(r);
  return entry;
}

void put_memo_list(WireWriter& w, const std::vector<env::MemoEntrySnapshot>& memo) {
  w.u64(memo.size());
  for (const auto& entry : memo) put_memo_entry(w, entry);
}

std::vector<env::MemoEntrySnapshot> get_memo_list(WireReader& r) {
  static const std::size_t kEntryBytes = min_wire_size<env::MemoEntrySnapshot>(put_memo_entry);
  const std::size_t n = checked_count(r, r.u64(), kEntryBytes, "memo entry");
  std::vector<env::MemoEntrySnapshot> memo;
  memo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) memo.push_back(get_memo_entry(r));
  return memo;
}

void put_field(WireWriter& w, std::uint64_t value) { w.u64(value); }
void put_field(WireWriter& w, const telemetry::HistogramData& value) { put_histogram(w, value); }
void get_field(WireReader& r, std::uint64_t& value) { value = r.u64(); }
void get_field(WireReader& r, telemetry::HistogramData& value) { value = get_histogram(r); }

/// Every listed field of a stats view, in list order (env/stats_fields.hpp):
/// a counter added to a list rides the snapshot with no codec edit.
template <typename View>
void put_fields(WireWriter& w, const View& view) {
  View::visit_fields([&](const char*, env::FieldKind, const auto& v) { put_field(w, v); }, view);
}

template <typename View>
void get_fields(WireReader& r, View& view) {
  View::visit_fields([&](const char*, env::FieldKind, auto& v) { get_field(r, v); }, view);
}

void put_backend_stats(WireWriter& w, const env::BackendStats& b) {
  w.str(b.name);
  w.u8(b.kind == env::BackendKind::kOnline ? 1 : 0);
  w.f64(b.cost_hint);
  put_fields(w, b);
}

env::BackendStats get_backend_stats(WireReader& r) {
  env::BackendStats b;
  b.name = r.str();
  b.kind = r.u8() == 1 ? env::BackendKind::kOnline : env::BackendKind::kOffline;
  b.cost_hint = r.f64();
  get_fields(r, b);
  return b;
}

env::RejectReason get_reject_reason(WireReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(env::RejectReason::kDeadlineExceeded)) {
    throw CodecError("rpc codec: bad reject reason " + std::to_string(raw));
  }
  return static_cast<env::RejectReason>(raw);
}

}  // namespace

std::vector<std::uint8_t> encode_query(std::uint64_t request_id, const env::EnvQuery& query) {
  WireWriter w;
  put_header(w, MsgType::kQuery, request_id);
  w.u32(query.backend);
  put_slice_config(w, query.config);
  put_workload(w, query.workload);
  w.boolean(query.sim_params.has_value());
  if (query.sim_params) put_sim_params(w, *query.sim_params);
  w.boolean(query.crn);
  w.f64(query.deadline_ms);
  w.u8(static_cast<std::uint8_t>(query.priority));
  return w.take();
}

std::vector<std::uint8_t> encode_result(std::uint64_t request_id,
                                        const env::EpisodeResult& result) {
  WireWriter w;
  put_header(w, MsgType::kResult, request_id);
  put_result_body(w, result);
  // Rejection rides only on served results, never in memo snapshots — a
  // rejected query produced no episode, so nothing of it is ever memoized.
  w.u8(static_cast<std::uint8_t>(result.rejected));
  return w.take();
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id, const std::string& message) {
  WireWriter w;
  put_header(w, MsgType::kError, request_id);
  w.str(message);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_request(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kStatsRequest, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_stats_snapshot(std::uint64_t request_id,
                                                const env::EnvServiceStats& stats) {
  WireWriter w;
  put_header(w, MsgType::kStatsSnapshot, request_id);
  w.u32(static_cast<std::uint32_t>(stats.backends.size()));
  for (const auto& backend : stats.backends) put_backend_stats(w, backend);
  put_fields(w, stats);
  return w.take();
}

FrameHeader decode_header(WireReader& reader) {
  const std::uint32_t magic = reader.u32();
  if (magic != kWireMagic) {
    throw CodecError("rpc codec: bad frame magic");
  }
  const std::uint16_t version = reader.u16();
  if (version != kWireVersion) {
    throw CodecError("rpc codec: wire version mismatch (got " + std::to_string(version) +
                     ", speak " + std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t type = reader.u16();
  if (type < static_cast<std::uint16_t>(MsgType::kQuery) ||
      type > static_cast<std::uint16_t>(MsgType::kCancel)) {
    throw CodecError("rpc codec: unknown message type " + std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<MsgType>(type);
  header.request_id = reader.u64();
  return header;
}

env::EnvQuery decode_query_body(WireReader& reader) {
  env::EnvQuery query;
  query.backend = reader.u32();
  query.config = get_slice_config(reader);
  query.workload = get_workload(reader);
  if (reader.boolean()) query.sim_params = get_sim_params(reader);
  query.crn = reader.boolean();
  query.deadline_ms = reader.f64();
  const std::uint8_t priority = reader.u8();
  if (priority > static_cast<std::uint8_t>(env::QueryPriority::kNormal)) {
    throw CodecError("rpc codec: bad query priority " + std::to_string(priority));
  }
  query.priority = static_cast<env::QueryPriority>(priority);
  reader.expect_done();
  return query;
}

env::EpisodeResult decode_result_body(WireReader& reader) {
  env::EpisodeResult result = get_result_body(reader);
  result.rejected = get_reject_reason(reader);
  reader.expect_done();
  return result;
}

std::string decode_error_body(WireReader& reader) {
  std::string message = reader.str();
  reader.expect_done();
  return message;
}

std::vector<std::uint8_t> encode_hello(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kHello, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_announce(std::uint64_t request_id,
                                          const env::WorkerAnnounce& announce) {
  WireWriter w;
  put_header(w, MsgType::kAnnounce, request_id);
  w.str(announce.build);
  w.u16(announce.wire_version);
  w.u32(announce.threads);
  w.u64(announce.cache_capacity);
  w.u32(static_cast<std::uint32_t>(announce.backends.size()));
  for (const auto& backend : announce.backends) put_backend_info(w, backend);
  return w.take();
}

std::vector<std::uint8_t> encode_heartbeat(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kHeartbeat, request_id);
  return w.take();
}

std::vector<std::uint8_t> encode_heartbeat_ack(std::uint64_t request_id,
                                               const env::WorkerHealth& health) {
  WireWriter w;
  put_header(w, MsgType::kHeartbeatAck, request_id);
  w.u64(health.outstanding);
  w.u64(health.cache_entries);
  w.u64(health.episodes);
  return w.take();
}

std::vector<std::uint8_t> encode_memo_export(std::uint64_t request_id, env::BackendId backend) {
  WireWriter w;
  put_header(w, MsgType::kMemoExport, request_id);
  w.u32(backend);
  return w.take();
}

std::vector<std::uint8_t> encode_memo_snapshot(std::uint64_t request_id,
                                               const std::vector<env::MemoEntrySnapshot>& memo) {
  WireWriter w;
  put_header(w, MsgType::kMemoSnapshot, request_id);
  put_memo_list(w, memo);
  return w.take();
}

std::vector<std::uint8_t> encode_install_backend(std::uint64_t request_id,
                                                 const env::BackendInstallRequest& request) {
  WireWriter w;
  put_header(w, MsgType::kInstallBackend, request_id);
  w.i32(request.target_backend);
  put_backend_info(w, request.descriptor);
  w.boolean(request.sim_params.has_value());
  if (request.sim_params) put_sim_params(w, *request.sim_params);
  put_memo_list(w, request.memo);
  return w.take();
}

std::vector<std::uint8_t> encode_install_ack(std::uint64_t request_id,
                                             const env::InstallResult& result) {
  WireWriter w;
  put_header(w, MsgType::kInstallAck, request_id);
  w.u32(result.backend);
  w.u64(result.imported);
  return w.take();
}

std::vector<std::uint8_t> encode_cancel(std::uint64_t request_id) {
  WireWriter w;
  put_header(w, MsgType::kCancel, request_id);
  return w.take();
}

env::WorkerAnnounce decode_announce_body(WireReader& reader) {
  env::WorkerAnnounce announce;
  announce.build = reader.str();
  announce.wire_version = reader.u16();
  announce.threads = reader.u32();
  announce.cache_capacity = reader.u64();
  static const std::size_t kInfoBytes = min_wire_size<env::WorkerBackendInfo>(put_backend_info);
  const std::size_t backends = checked_count(reader, reader.u32(), kInfoBytes, "announced backend");
  announce.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) announce.backends.push_back(get_backend_info(reader));
  reader.expect_done();
  return announce;
}

env::WorkerHealth decode_heartbeat_ack_body(WireReader& reader) {
  env::WorkerHealth health;
  health.outstanding = reader.u64();
  health.cache_entries = reader.u64();
  health.episodes = reader.u64();
  reader.expect_done();
  return health;
}

env::BackendId decode_memo_export_body(WireReader& reader) {
  const env::BackendId backend = reader.u32();
  reader.expect_done();
  return backend;
}

std::vector<env::MemoEntrySnapshot> decode_memo_snapshot_body(WireReader& reader) {
  std::vector<env::MemoEntrySnapshot> memo = get_memo_list(reader);
  reader.expect_done();
  return memo;
}

env::BackendInstallRequest decode_install_backend_body(WireReader& reader) {
  env::BackendInstallRequest request;
  request.target_backend = reader.i32();
  request.descriptor = get_backend_info(reader);
  if (reader.boolean()) request.sim_params = get_sim_params(reader);
  request.memo = get_memo_list(reader);
  reader.expect_done();
  return request;
}

env::InstallResult decode_install_ack_body(WireReader& reader) {
  env::InstallResult result;
  result.backend = reader.u32();
  result.imported = reader.u64();
  reader.expect_done();
  return result;
}

env::EnvServiceStats decode_stats_snapshot_body(WireReader& reader) {
  static const std::size_t kRowBytes = min_wire_size<env::BackendStats>(put_backend_stats);
  env::EnvServiceStats stats;
  const std::size_t backends = checked_count(reader, reader.u32(), kRowBytes, "backend stats");
  stats.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) stats.backends.push_back(get_backend_stats(reader));
  get_fields(reader, stats);
  reader.expect_done();
  return stats;
}

}  // namespace atlas::rpc
