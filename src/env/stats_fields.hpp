#pragma once

#include <atomic>
#include <cstdint>

#include "telemetry/histogram.hpp"

/// One field list per stats view (BackendStats, EnvServiceStats, FarmView,
/// SpeculationView), so every counter is named exactly once. A list is an
/// X-macro: `LIST(X)` expands `X(name, kind, ...)` once per field, where
/// `kind` is a FieldKind enumerator. Every copy of the fields derives from
/// it:
///
///  * the plain snapshot members    LIST(ATLAS_STATS_FIELD)
///  * the atomic block behind them  LIST(ATLAS_STATS_ATOMIC)
///  * a zipped visitor              ATLAS_STATS_VISITOR(LIST)
///
/// The visitor, `T::visit_fields(f, objs...)`, calls
/// `f(name, kind, objs.field...)` for each field in list order. The generic
/// load / reset / delta / sum below and the wire codec are written against
/// it, so a counter added to a list reaches every view, delta, fold, reset
/// and the stats snapshot with no other edit.

namespace atlas::env {

enum class FieldKind {
  kCounter,    ///< monotonic u64: differenced by deltas, summed by folds, zeroed by resets
  kGauge,      ///< u64 level (e.g. workers serving now): passes through deltas undifferenced
  kHistogram,  ///< telemetry::HistogramData: bucket-wise, like a counter (never atomic)
};

// ---- generic operations over a visitor ---------------------------------------

namespace stats_fields {

inline void subtract(FieldKind kind, std::uint64_t& now, std::uint64_t start) {
  if (kind == FieldKind::kCounter) now -= start;
}
inline void subtract(FieldKind, telemetry::HistogramData& now,
                     const telemetry::HistogramData& start) {
  now.subtract(start);
}
inline void add(std::uint64_t& into, std::uint64_t from) { into += from; }
inline void add(telemetry::HistogramData& into, const telemetry::HistogramData& from) {
  into.merge(from);
}

}  // namespace stats_fields

/// `now - start` field by field: counters and histograms become the activity
/// between the two snapshots; gauges are levels and keep `now`'s value.
template <typename View>
void subtract_fields(View& now, const View& start) {
  View::visit_fields(
      [](const char*, FieldKind kind, auto& n, const auto& s) {
        stats_fields::subtract(kind, n, s);
      },
      now, start);
}

/// `into += from` field by field (histograms merge exactly: log-scale
/// buckets sum).
template <typename View>
void add_fields(View& into, const View& from) {
  View::visit_fields(
      [](const char*, FieldKind, auto& a, const auto& b) { stats_fields::add(a, b); }, into,
      from);
}

/// Relaxed snapshot of an atomic block into its plain view.
template <typename Block, typename View>
void load_fields(const Block& block, View& view) {
  Block::visit_fields(
      [](const char*, FieldKind, const std::atomic<std::uint64_t>& in, std::uint64_t& out) {
        out = in.load(std::memory_order_relaxed);
      },
      block, view);
}

/// Zero every counter and gauge of an atomic block.
template <typename Block>
void reset_fields(Block& block) {
  Block::visit_fields(
      [](const char*, FieldKind, std::atomic<std::uint64_t>& counter) {
        counter.store(0, std::memory_order_relaxed);
      },
      block);
}

}  // namespace atlas::env

#define ATLAS_STATS_FIELD(name, kind, ...) ATLAS_STATS_FIELD_##kind(name)
#define ATLAS_STATS_FIELD_kCounter(name) std::uint64_t name = 0;
#define ATLAS_STATS_FIELD_kGauge(name) std::uint64_t name = 0;
#define ATLAS_STATS_FIELD_kHistogram(name) ::atlas::telemetry::HistogramData name;

#define ATLAS_STATS_ATOMIC(name, kind, ...) std::atomic<std::uint64_t> name{0};

#define ATLAS_STATS_VISIT(name, kind, ...) f(#name, ::atlas::env::FieldKind::kind, objs.name...);
#define ATLAS_STATS_VISITOR(LIST)                   \
  template <typename F, typename... Objs>           \
  static void visit_fields(F&& f, Objs&&... objs) { \
    LIST(ATLAS_STATS_VISIT)                         \
  }
