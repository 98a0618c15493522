#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "env/client.hpp"

namespace atlas::env {

/// Shared counter block of a SpeculationPlanner, attached to the client it
/// speculates through (mirroring FarmState/attach_farm), so stats()
/// snapshots and summary() report the speculation story even after the
/// planner is gone. Counters only move at iteration close, where the
/// invariant `launched == hits + cancelled + wasted` is settled exactly.
class SpeculationState {
 public:
  ATLAS_SPECULATION_FIELDS(ATLAS_STATS_ATOMIC)
  ATLAS_STATS_VISITOR(ATLAS_SPECULATION_FIELDS)

  SpeculationView view() const {
    SpeculationView v;
    v.active = true;
    load_fields(*this, v);
    return v;
  }
};

struct SpeculationOptions {
  /// Prefetch depth K per checkpoint: how many ranked candidates one
  /// speculate_top pass may launch.
  std::size_t top_k = 4;
  /// Never speculate while the client already has this many outstanding
  /// queries (0 = 4x top_k): speculation fills IDLE capacity, it must not
  /// queue behind committed work. Also caps the iteration's TOTAL open
  /// flights, so repeated checkpoints can chase a moving scan leader without
  /// unbounded launches.
  std::size_t max_outstanding = 0;
  /// Stay strictly below this queue depth (a service's soft shed watermark):
  /// a speculation that would be shed on arrival is pure accounting noise.
  /// 0 = no watermark to respect.
  std::size_t shed_watermark = 0;
};

/// Optimistic episode prefetching above the DES (ROOT-Sim's optimistic
/// execution applied to BO): while the acquisition scan still runs, the
/// likely winners' episodes are submitted as kSpeculative queries under the
/// same CRN seed plan the committed query will use, so by the time BO
/// commits, the result is already (being) memoized — the commit coalesces
/// onto the in-flight episode or hits the memo table outright.
///
/// Rollback is cheap by construction:
///  * a mispredicted episode that ran is just a warm cache entry (`wasted`);
///  * one still queued at iteration close is cancelled via the token /
///    wire-kCancel path and resolves as a typed kCancelled rejection that is
///    never memoized (`cancelled` — watermark sheds and dead deadlines land
///    here too: no usable episode came back);
///  * a speculation the commit actually reused is a `hit`.
///
/// Exactly one bucket per launch, settled at close_iteration():
/// `launched == hits + cancelled + wasted`.
///
/// Determinism: the planner only SUBMITS queries — it never touches the
/// optimizer's RNG, and the memo key ignores priority/deadline — so stage
/// results with speculation on are bit-identical to speculation off
/// (golden_stage_test pins this).
///
/// Thread-safe; typical use is one planner per BO loop:
///
///   SpeculationPlanner prefetch(service, {.top_k = 4});
///   // mid-scan: prefetch.speculate(query_for(candidate));
///   // on commit: prefetch.note_commit(query);
///   // iteration end, after harvesting: prefetch.close_iteration();
class SpeculationPlanner {
 public:
  explicit SpeculationPlanner(EnvClient& client, SpeculationOptions options = {});
  SpeculationPlanner(const SpeculationPlanner&) = delete;
  SpeculationPlanner& operator=(const SpeculationPlanner&) = delete;
  /// Closes the open iteration (cancels and settles anything in flight).
  ~SpeculationPlanner();

  /// How many more speculations the budget allows right now: remaining
  /// prefetch depth, capped by the client's idle capacity (max_outstanding)
  /// and the shed watermark headroom.
  std::size_t budget() const;

  /// Speculatively submit `query` (priority forced to kSpeculative) unless
  /// the budget is exhausted or an identical episode was already speculated
  /// this iteration. Returns true when a query was actually launched.
  bool speculate(EnvQuery query);

  /// BO committed to a configuration: if its episode was speculated this
  /// iteration, the speculation is a hit (the memo table or in-flight
  /// episode serves the committed query). Call BEFORE close_iteration().
  void note_commit(const EnvQuery& query);

  /// Iteration closed: flip the cancel tokens of uncommitted speculations,
  /// harvest every future, and settle each launch into exactly one of
  /// hits / cancelled / wasted. Blocks on episodes already executing on
  /// non-cancellable (local) backends — they become warm cache entries.
  void close_iteration();

  SpeculationView view() const { return state_->view(); }
  std::shared_ptr<const SpeculationState> state() const { return state_; }

 private:
  /// Memo-equivalent identity of one episode: the same fields
  /// EnvService::make_key uses, so "same key" here means "would coalesce /
  /// hit the same memo entry there".
  struct Key {
    BackendId backend = 0;
    std::vector<double> values;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Flight {
    QueryHandle handle;
    std::shared_ptr<CancelToken> cancel;
    bool committed = false;
  };

  static Key key_of(const EnvQuery& query);

  EnvClient& client_;
  SpeculationOptions options_;
  std::size_t max_outstanding_ = 0;  ///< resolved (default 4x top_k)
  std::shared_ptr<SpeculationState> state_;

  mutable std::mutex mutex_;  ///< guards flights_
  std::unordered_map<Key, Flight, KeyHash> flights_;
};

}  // namespace atlas::env
