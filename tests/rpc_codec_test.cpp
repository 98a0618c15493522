#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "rpc/codec.hpp"

namespace ar = atlas::rpc;
namespace ae = atlas::env;

namespace {

// Bit-level equality (0.0 vs -0.0 differ; values from different code paths
// must match EXACTLY for memoization to treat remote and local episodes as
// interchangeable).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// NaN-free doubles spanning the interesting range: extremes, denormals,
/// negative zero, and ordinary values.
double random_double(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::max();
    case 3: return std::numeric_limits<double>::lowest();
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: return std::numeric_limits<double>::infinity();
    default: {
      std::uniform_real_distribution<double> dist(-1e6, 1e6);
      return dist(rng);
    }
  }
}

ae::EnvQuery random_query(std::mt19937_64& rng) {
  ae::EnvQuery q;
  q.backend = static_cast<ae::BackendId>(rng() % 1024);
  q.config.bandwidth_ul = random_double(rng);
  q.config.bandwidth_dl = random_double(rng);
  q.config.mcs_offset_ul = random_double(rng);
  q.config.mcs_offset_dl = random_double(rng);
  q.config.backhaul_mbps = random_double(rng);
  q.config.cpu_ratio = random_double(rng);
  q.workload.traffic = static_cast<int>(rng() % 4) + 1;
  q.workload.duration_ms = random_double(rng);
  q.workload.distance_m = random_double(rng);
  q.workload.random_walk = (rng() % 2) == 0;
  q.workload.extra_users = static_cast<int>(rng() % 7) - 1;
  q.workload.collect_traces = (rng() % 2) == 0;
  q.crn = (rng() % 2) == 0;
  q.workload.seed = rng();  // full 64-bit range, incl. > 2^53
  if (rng() % 2 == 0) {
    ae::SimParams p;
    p.baseline_loss_db = random_double(rng);
    p.enb_noise_figure_db = random_double(rng);
    p.ue_noise_figure_db = random_double(rng);
    p.backhaul_bw_mbps = random_double(rng);
    p.backhaul_delay_ms = random_double(rng);
    p.compute_time_ms = random_double(rng);
    p.loading_time_ms = random_double(rng);
    q.sim_params = p;
  }
  return q;
}

ae::EpisodeResult random_result(std::mt19937_64& rng) {
  ae::EpisodeResult r;
  const std::size_t latencies = rng() % 64;  // often empty
  for (std::size_t i = 0; i < latencies; ++i) r.latencies_ms.push_back(random_double(rng));
  r.frames_completed = static_cast<std::size_t>(rng() % 100000);
  r.ul_tb_total = static_cast<int>(rng() % 1000000);
  r.ul_tb_err = static_cast<int>(rng() % 10000);
  r.dl_tb_total = static_cast<int>(rng() % 1000000);
  r.dl_tb_err = static_cast<int>(rng() % 10000);
  const std::size_t traces = rng() % 2 == 0 ? 0 : rng() % 16;  // empty half the time
  for (std::size_t i = 0; i < traces; ++i) {
    ae::FrameTrace t;
    t.id = rng();
    t.created_ms = random_double(rng);
    t.sent_ms = random_double(rng);
    t.ul_done_ms = random_double(rng);
    t.edge_in_ms = random_double(rng);
    t.compute_start_ms = random_double(rng);
    t.compute_done_ms = random_double(rng);
    t.enb_dl_ms = random_double(rng);
    t.completed_ms = random_double(rng);
    r.traces.push_back(t);
  }
  return r;
}

ae::EnvQuery roundtrip_query(const ae::EnvQuery& q, std::uint64_t id) {
  const auto frame = ar::encode_query(id, q);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kQuery);
  EXPECT_EQ(header.request_id, id);
  return ar::decode_query_body(reader);
}

ae::EpisodeResult roundtrip_result(const ae::EpisodeResult& r, std::uint64_t id) {
  const auto frame = ar::encode_result(id, r);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kResult);
  EXPECT_EQ(header.request_id, id);
  return ar::decode_result_body(reader);
}

void fill_field(std::uint64_t& field, std::uint64_t value) { field = value; }
void fill_field(atlas::telemetry::HistogramData& field, std::uint64_t value) {
  field.record(value);
  field.record(value * 7919);
}

/// A snapshot with every listed field (env/stats_fields.hpp) set to its own
/// value, filled through the visitor: a counter added to a list is covered
/// here with no test edit.
ae::EnvServiceStats every_field_distinct() {
  std::uint64_t next = 1;
  const auto fill = [&](const char*, ae::FieldKind, auto& field) {
    fill_field(field, 1000 * next++);
  };
  ae::EnvServiceStats stats;
  for (const auto kind : {ae::BackendKind::kOffline, ae::BackendKind::kOnline}) {
    ae::BackendStats row;
    row.name = "row-" + std::to_string(next);
    row.kind = kind;
    row.cost_hint = static_cast<double>(next) + 0.5;
    ae::BackendStats::visit_fields(fill, row);
    stats.backends.push_back(std::move(row));
  }
  ae::EnvServiceStats::visit_fields(fill, stats);
  return stats;
}

void expect_field_eq(const char* name, std::uint64_t back, std::uint64_t sent) {
  EXPECT_EQ(back, sent) << name;
}
void expect_field_eq(const char* name, const atlas::telemetry::HistogramData& back,
                     const atlas::telemetry::HistogramData& sent) {
  EXPECT_EQ(back.counts(), sent.counts()) << name;
  EXPECT_EQ(back.sum(), sent.sum()) << name;
}

template <typename View>
void expect_fields_equal(const View& back, const View& sent) {
  View::visit_fields([](const char* name, ae::FieldKind, const auto& b,
                        const auto& s) { expect_field_eq(name, b, s); },
                     back, sent);
}

}  // namespace

TEST(RpcCodec, QueryRoundTripsBitIdentically) {
  std::mt19937_64 rng(0xA71A5u);
  for (int rep = 0; rep < 500; ++rep) {
    const ae::EnvQuery q = random_query(rng);
    const ae::EnvQuery back = roundtrip_query(q, rng());

    EXPECT_EQ(back.backend, q.backend);
    const auto cv = q.config.to_vec();
    const auto bv = back.config.to_vec();
    ASSERT_EQ(cv.size(), bv.size());
    for (std::size_t i = 0; i < cv.size(); ++i) {
      EXPECT_TRUE(same_bits(cv[i], bv[i])) << "config dim " << i;
    }
    EXPECT_EQ(back.workload.traffic, q.workload.traffic);
    EXPECT_TRUE(same_bits(back.workload.duration_ms, q.workload.duration_ms));
    EXPECT_TRUE(same_bits(back.workload.distance_m, q.workload.distance_m));
    EXPECT_EQ(back.workload.random_walk, q.workload.random_walk);
    EXPECT_EQ(back.workload.extra_users, q.workload.extra_users);
    EXPECT_EQ(back.workload.collect_traces, q.workload.collect_traces);
    EXPECT_EQ(back.workload.seed, q.workload.seed);
    EXPECT_EQ(back.crn, q.crn);
    ASSERT_EQ(back.sim_params.has_value(), q.sim_params.has_value());
    if (q.sim_params) {
      const auto pv = q.sim_params->to_vec();
      const auto qv = back.sim_params->to_vec();
      ASSERT_EQ(pv.size(), qv.size());
      for (std::size_t i = 0; i < pv.size(); ++i) {
        EXPECT_TRUE(same_bits(pv[i], qv[i])) << "sim param " << i;
      }
    }
  }
}

TEST(RpcCodec, ResultRoundTripsBitIdentically) {
  std::mt19937_64 rng(0xEC0DECu);
  for (int rep = 0; rep < 500; ++rep) {
    const ae::EpisodeResult r = random_result(rng);
    const ae::EpisodeResult back = roundtrip_result(r, rng());

    ASSERT_EQ(back.latencies_ms.size(), r.latencies_ms.size());
    for (std::size_t i = 0; i < r.latencies_ms.size(); ++i) {
      EXPECT_TRUE(same_bits(back.latencies_ms[i], r.latencies_ms[i])) << "latency " << i;
    }
    EXPECT_EQ(back.frames_completed, r.frames_completed);
    EXPECT_EQ(back.ul_tb_total, r.ul_tb_total);
    EXPECT_EQ(back.ul_tb_err, r.ul_tb_err);
    EXPECT_EQ(back.dl_tb_total, r.dl_tb_total);
    EXPECT_EQ(back.dl_tb_err, r.dl_tb_err);
    ASSERT_EQ(back.traces.size(), r.traces.size());
    for (std::size_t i = 0; i < r.traces.size(); ++i) {
      EXPECT_EQ(back.traces[i].id, r.traces[i].id);
      EXPECT_TRUE(same_bits(back.traces[i].created_ms, r.traces[i].created_ms));
      EXPECT_TRUE(same_bits(back.traces[i].completed_ms, r.traces[i].completed_ms));
      EXPECT_TRUE(same_bits(back.traces[i].compute_start_ms, r.traces[i].compute_start_ms));
    }
  }
}

TEST(RpcCodec, ErrorRoundTrips) {
  const auto frame = ar::encode_error(77, "no such backend");
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kError);
  EXPECT_EQ(header.request_id, 77u);
  EXPECT_EQ(ar::decode_error_body(reader), "no such backend");
}

TEST(RpcCodec, TruncatedFramesAreRejected) {
  std::mt19937_64 rng(3);
  const auto frame = ar::encode_query(1, random_query(rng));
  // Every proper prefix must throw, never read past the end or misdecode.
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<std::uint8_t> cut(frame.begin(), frame.begin() + keep);
    ar::WireReader reader(cut);
    EXPECT_THROW(
        {
          const auto header = ar::decode_header(reader);
          if (header.type == ar::MsgType::kQuery) (void)ar::decode_query_body(reader);
        },
        ar::CodecError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(RpcCodec, CorruptedHeadersAreRejected) {
  std::mt19937_64 rng(4);
  const auto good = ar::encode_result(9, random_result(rng));

  {  // flipped magic
    auto bad = good;
    bad[0] ^= 0xFF;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError);
  }
  {  // future wire version
    auto bad = good;
    bad[4] = 0x7F;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError);
  }
  {  // unknown message type
    auto bad = good;
    bad[6] = 0x63;
    ar::WireReader reader(bad);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError);
  }
}

TEST(RpcCodec, TrailingGarbageIsRejected) {
  std::mt19937_64 rng(5);
  auto frame = ar::encode_query(2, random_query(rng));
  frame.push_back(0xAB);
  ar::WireReader reader(frame);
  (void)ar::decode_header(reader);
  EXPECT_THROW((void)ar::decode_query_body(reader), ar::CodecError);
}

TEST(RpcCodec, StatsSnapshotRoundTrips) {
  // A worker's EnvServiceStats — counters, per-backend rows, and the
  // sparse-encoded serving histograms — must survive the trip exactly.
  ae::EnvServiceStats stats;
  stats.offline_queries = 120;
  stats.online_queries = 7;
  stats.cache_hits = 60;
  stats.cache_misses = 67;
  stats.crn_hits = 41;
  for (int i = 0; i < 3; ++i) {
    ae::BackendStats b;
    b.name = "backend-" + std::to_string(i);
    b.kind = i == 2 ? ae::BackendKind::kOnline : ae::BackendKind::kOffline;
    b.queries = 40 + static_cast<std::uint64_t>(i);
    b.cache_hits = 20;
    b.cache_misses = 20;
    b.crn_hits = 13;
    b.episodes = 27;
    b.cost_hint = i == 0 ? 1.0 : 1000.0;
    b.rpc_retries = static_cast<std::uint64_t>(i);
    b.rpc_failures = 0;
    if (i == 1) {
      for (int s = 0; s < 50; ++s) b.rpc_rtt_ns.record(100000 + s * 7919);
    }
    stats.backends.push_back(std::move(b));
  }
  for (int s = 0; s < 200; ++s) stats.query_latency_ns.record(1000 + s * 997);
  for (int s = 0; s < 40; ++s) stats.queue_depth.record(static_cast<std::uint64_t>(s % 5));
  for (int s = 0; s < 30; ++s) stats.rpc_service_ns.record(500000 + s);

  for (const ae::EnvServiceStats& sent : {stats, every_field_distinct()}) {
    const auto frame = ar::encode_stats_snapshot(42, sent);
    ar::WireReader reader(frame);
    const auto header = ar::decode_header(reader);
    EXPECT_EQ(header.type, ar::MsgType::kStatsSnapshot);
    EXPECT_EQ(header.request_id, 42u);
    const ae::EnvServiceStats back = ar::decode_stats_snapshot_body(reader);

    expect_fields_equal(back, sent);
    ASSERT_EQ(back.backends.size(), sent.backends.size());
    for (std::size_t i = 0; i < sent.backends.size(); ++i) {
      EXPECT_EQ(back.backends[i].name, sent.backends[i].name);
      EXPECT_EQ(back.backends[i].kind, sent.backends[i].kind);
      EXPECT_TRUE(same_bits(back.backends[i].cost_hint, sent.backends[i].cost_hint));
      expect_fields_equal(back.backends[i], sent.backends[i]);
    }
  }
}

TEST(RpcCodec, EmptyStatsSnapshotRoundTrips) {
  const auto frame = ar::encode_stats_snapshot(1, ae::EnvServiceStats{});
  ar::WireReader reader(frame);
  EXPECT_EQ(ar::decode_header(reader).type, ar::MsgType::kStatsSnapshot);
  const ae::EnvServiceStats back = ar::decode_stats_snapshot_body(reader);
  EXPECT_TRUE(back.backends.empty());
  EXPECT_TRUE(back.query_latency_ns.empty());
  EXPECT_EQ(back.total_queries(), 0u);
}

TEST(RpcCodec, StatsRequestIsHeaderOnly) {
  const auto frame = ar::encode_stats_request(9);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kStatsRequest);
  EXPECT_EQ(header.request_id, 9u);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(RpcCodec, ImplausibleElementCountsAreRejectedNotAllocated) {
  // A corrupted latency count must throw before the decoder tries to
  // reserve terabytes.
  ar::WireWriter w;
  w.u32(ar::kWireMagic);
  w.u16(ar::kWireVersion);
  w.u16(static_cast<std::uint16_t>(ar::MsgType::kResult));
  w.u64(1);                        // request id
  w.u64(0xFFFFFFFFFFFFFFFFull);    // latency count
  const auto frame = w.take();
  ar::WireReader reader(frame);
  (void)ar::decode_header(reader);
  EXPECT_THROW((void)ar::decode_result_body(reader), ar::CodecError);

  // A plausible-looking count is bounded by the bytes actually left in the
  // frame: an 8-byte body claiming 8M latencies (64 MB) is rejected as
  // implausible before any reserve, not reserved and then found truncated.
  ar::WireWriter small;
  small.u32(ar::kWireMagic);
  small.u16(ar::kWireVersion);
  small.u16(static_cast<std::uint16_t>(ar::MsgType::kResult));
  small.u64(2);                 // request id
  small.u64(8u * 1024 * 1024);  // latency count; the body ends here
  const auto claimed = small.take();
  ar::WireReader claimed_reader(claimed);
  (void)ar::decode_header(claimed_reader);
  try {
    (void)ar::decode_result_body(claimed_reader);
    ADD_FAILURE() << "an 8-byte body claiming 8M latencies decoded";
  } catch (const ar::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos) << e.what();
  }
}

TEST(RpcCodec, OtherWireVersionsAreRejected) {
  // Every peer is built from one tree: a frame stamped with any version but
  // this build's is rejected, older or newer.
  std::mt19937_64 rng(0x22u);
  for (const int version : {0, ar::kWireVersion - 1, ar::kWireVersion + 1}) {
    auto frame = ar::encode_query(5, random_query(rng));
    frame[4] = static_cast<std::uint8_t>(version);  // version u16 lives after the u32 magic
    frame[5] = 0;
    ar::WireReader reader(frame);
    EXPECT_THROW((void)ar::decode_header(reader), ar::CodecError) << "version " << version;
  }
}

TEST(RpcCodec, AnnounceRoundTrips) {
  ae::WorkerAnnounce announce;
  announce.build = "atlas-episode-worker";
  announce.wire_version = ar::kWireVersion;
  announce.threads = 8;
  announce.cache_capacity = 65536;
  ae::WorkerBackendInfo sim;
  sim.name = "sim-0";
  sim.kind = ae::BackendKind::kOffline;
  sim.cost_hint = 1000.0;
  sim.accepts_sim_params = true;
  sim.params_digest = 0xDEADBEEFCAFEF00Dull;
  ae::WorkerBackendInfo real;
  real.name = "real-0";
  real.kind = ae::BackendKind::kOnline;
  announce.backends = {sim, real};

  const auto frame = ar::encode_announce(42, announce);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kAnnounce);
  EXPECT_EQ(header.request_id, 42u);
  const ae::WorkerAnnounce back = ar::decode_announce_body(reader);
  EXPECT_EQ(back.build, announce.build);
  EXPECT_EQ(back.wire_version, announce.wire_version);
  EXPECT_EQ(back.threads, announce.threads);
  EXPECT_EQ(back.cache_capacity, announce.cache_capacity);
  ASSERT_EQ(back.backends.size(), 2u);
  EXPECT_EQ(back.backends[0].name, "sim-0");
  EXPECT_EQ(back.backends[0].kind, ae::BackendKind::kOffline);
  EXPECT_TRUE(same_bits(back.backends[0].cost_hint, 1000.0));
  EXPECT_TRUE(back.backends[0].accepts_sim_params);
  EXPECT_EQ(back.backends[0].params_digest, sim.params_digest);
  EXPECT_EQ(back.backends[0].equivalence_key(), sim.equivalence_key());
  EXPECT_EQ(back.backends[1].kind, ae::BackendKind::kOnline);
}

TEST(RpcCodec, HeartbeatAckRoundTrips) {
  ae::WorkerHealth health;
  health.outstanding = 3;
  health.cache_entries = 1234;
  health.episodes = 98765;
  const auto frame = ar::encode_heartbeat_ack(7, health);
  ar::WireReader reader(frame);
  EXPECT_EQ(ar::decode_header(reader).type, ar::MsgType::kHeartbeatAck);
  const ae::WorkerHealth back = ar::decode_heartbeat_ack_body(reader);
  EXPECT_EQ(back.outstanding, 3u);
  EXPECT_EQ(back.cache_entries, 1234u);
  EXPECT_EQ(back.episodes, 98765u);
}

TEST(RpcCodec, MemoSnapshotRoundTripsBitIdentically) {
  // Migrated memo entries must survive the trip EXACTLY — a migrated entry
  // that differs by one bit would break result determinism on revisit.
  std::mt19937_64 rng(0x4444u);
  std::vector<ae::MemoEntrySnapshot> memo;
  for (int i = 0; i < 16; ++i) {
    ae::MemoEntrySnapshot entry;
    const std::size_t keys = 1 + rng() % 12;
    for (std::size_t k = 0; k < keys; ++k) entry.key.push_back(random_double(rng));
    entry.result = random_result(rng);
    entry.cost = random_double(rng);
    memo.push_back(std::move(entry));
  }

  const auto frame = ar::encode_memo_snapshot(9, memo);
  ar::WireReader reader(frame);
  EXPECT_EQ(ar::decode_header(reader).type, ar::MsgType::kMemoSnapshot);
  const auto back = ar::decode_memo_snapshot_body(reader);
  ASSERT_EQ(back.size(), memo.size());
  for (std::size_t i = 0; i < memo.size(); ++i) {
    ASSERT_EQ(back[i].key.size(), memo[i].key.size());
    for (std::size_t k = 0; k < memo[i].key.size(); ++k) {
      EXPECT_TRUE(same_bits(back[i].key[k], memo[i].key[k])) << "entry " << i << " key " << k;
    }
    EXPECT_TRUE(same_bits(back[i].cost, memo[i].cost));
    ASSERT_EQ(back[i].result.latencies_ms.size(), memo[i].result.latencies_ms.size());
    for (std::size_t k = 0; k < memo[i].result.latencies_ms.size(); ++k) {
      EXPECT_TRUE(same_bits(back[i].result.latencies_ms[k], memo[i].result.latencies_ms[k]));
    }
    EXPECT_EQ(back[i].result.frames_completed, memo[i].result.frames_completed);
    EXPECT_EQ(back[i].result.traces.size(), memo[i].result.traces.size());
  }
}

TEST(RpcCodec, InstallBackendRoundTrips) {
  std::mt19937_64 rng(0x5555u);
  ae::BackendInstallRequest request;
  request.target_backend = -1;  // fresh install, not a memo-merge
  request.descriptor.name = "sim-migrated";
  request.descriptor.kind = ae::BackendKind::kOffline;
  request.descriptor.accepts_sim_params = true;
  request.descriptor.params_digest = 77;
  ae::SimParams params;
  params.backhaul_delay_ms = random_double(rng);
  params.compute_time_ms = random_double(rng);
  request.sim_params = params;
  ae::MemoEntrySnapshot entry;
  entry.key = {0.0, random_double(rng)};
  entry.result = random_result(rng);
  request.memo.push_back(std::move(entry));

  const auto frame = ar::encode_install_backend(11, request);
  ar::WireReader reader(frame);
  EXPECT_EQ(ar::decode_header(reader).type, ar::MsgType::kInstallBackend);
  const ae::BackendInstallRequest back = ar::decode_install_backend_body(reader);
  EXPECT_EQ(back.target_backend, -1);
  EXPECT_EQ(back.descriptor.name, "sim-migrated");
  EXPECT_EQ(back.descriptor.params_digest, 77u);
  ASSERT_TRUE(back.sim_params.has_value());
  EXPECT_TRUE(same_bits(back.sim_params->backhaul_delay_ms, params.backhaul_delay_ms));
  EXPECT_TRUE(same_bits(back.sim_params->compute_time_ms, params.compute_time_ms));
  ASSERT_EQ(back.memo.size(), 1u);
  EXPECT_TRUE(same_bits(back.memo[0].key[1], request.memo[0].key[1]));

  // Memo-merge form: target >= 0, no params.
  ae::BackendInstallRequest merge;
  merge.target_backend = 2;
  const auto merge_frame = ar::encode_install_backend(12, merge);
  ar::WireReader merge_reader(merge_frame);
  (void)ar::decode_header(merge_reader);
  const auto merge_back = ar::decode_install_backend_body(merge_reader);
  EXPECT_EQ(merge_back.target_backend, 2);
  EXPECT_FALSE(merge_back.sim_params.has_value());
  EXPECT_TRUE(merge_back.memo.empty());
}

TEST(RpcCodec, InstallAckAndMemoExportRoundTrip) {
  const auto ack = ar::encode_install_ack(3, ae::InstallResult{.backend = 5, .imported = 999});
  ar::WireReader ack_reader(ack);
  EXPECT_EQ(ar::decode_header(ack_reader).type, ar::MsgType::kInstallAck);
  const ae::InstallResult back = ar::decode_install_ack_body(ack_reader);
  EXPECT_EQ(back.backend, 5u);
  EXPECT_EQ(back.imported, 999u);

  const auto exp = ar::encode_memo_export(4, 9);
  ar::WireReader exp_reader(exp);
  EXPECT_EQ(ar::decode_header(exp_reader).type, ar::MsgType::kMemoExport);
  EXPECT_EQ(ar::decode_memo_export_body(exp_reader), 9u);
}

// ---- overload-protection fields ------------------------------------------------

TEST(RpcCodec, QueryCarriesDeadlineAndPriority) {
  std::mt19937_64 rng(0x5005u);
  for (int rep = 0; rep < 100; ++rep) {
    ae::EnvQuery q = random_query(rng);
    q.deadline_ms = rng() % 2 == 0 ? 0.0 : random_double(rng);
    q.priority = rng() % 2 == 0 ? ae::QueryPriority::kSpeculative : ae::QueryPriority::kNormal;
    const ae::EnvQuery back = roundtrip_query(q, rng());
    EXPECT_TRUE(same_bits(back.deadline_ms, q.deadline_ms));
    EXPECT_EQ(back.priority, q.priority);
  }
}

TEST(RpcCodec, ResultCarriesRejectReason) {
  std::mt19937_64 rng(0x5105u);
  for (const auto reason : {ae::RejectReason::kNone, ae::RejectReason::kShedded,
                            ae::RejectReason::kDeadlineExceeded}) {
    ae::EpisodeResult r;  // a rejection carries no measurements
    r.rejected = reason;
    const ae::EpisodeResult back = roundtrip_result(r, rng());
    EXPECT_EQ(back.rejected, reason);
  }
  // An out-of-range reject reason byte is a protocol violation, not UB.
  ae::EpisodeResult r;
  auto frame = ar::encode_result(3, r);
  frame.back() = 0x7F;  // the reject-reason u8 is the final body byte
  ar::WireReader reader(frame);
  (void)ar::decode_header(reader);
  EXPECT_THROW((void)ar::decode_result_body(reader), ar::CodecError);
}

TEST(RpcCodec, CancelIsHeaderOnly) {
  const auto frame = ar::encode_cancel(0xABCDEF);
  ar::WireReader reader(frame);
  const auto header = ar::decode_header(reader);
  EXPECT_EQ(header.type, ar::MsgType::kCancel);
  EXPECT_EQ(header.request_id, 0xABCDEFu);
  EXPECT_EQ(reader.remaining(), 0u);
}
