// Per-worker probe context: everything one scheduler worker owns.
//
// A ProbeContext is a full private replica of the live circuit state —
// Network clone (ids, tombstones and the recycled-id free stack preserved),
// Placement copy, and an Sta that ADOPTS the live engine's timing state
// byte-for-byte instead of recomputing it — plus its own RewireEngine,
// ProbeScratch and statistics shard. Workers therefore probe with zero
// shared mutable state: no locks on the hot path, no data races, and —
// because a probe is a pure function of replica state and every replica is
// synced to the same live state — bit-identical results no matter which
// worker evaluates which candidate. That last property is what lets
// `--threads N` reproduce `--threads 1` exactly.
//
// A replica only probes. It never commits, proves or extracts, so it holds
// no partition and no proof session: swap and resize moves name gates, not
// supergate slots, and probe identically without one.
//
// Lifecycle: sync() re-replicates after the live epoch advances (commits
// invalidate replicas); probe results remain valid within one epoch. The
// first sync builds the replica objects; every later one copies the live
// network, placement and Sta state into them in place, reusing their
// capacity. Either way the replica is a byte copy of the live state, levels
// and damping margins included, so a replica damps exactly as the live
// engine would and never refreshes margins itself: refresh the live
// engine's before the round that syncs.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/rewire_engine.hpp"

namespace rapids {

/// Replica sync cost counters, accumulated per context and harvested by the
/// scheduler (addable so per-worker shards merge into one view).
struct ReplicaSyncStats {
  std::uint64_t syncs = 0;       // sync() calls
  std::uint64_t full_syncs = 0;  // epoch-advancing syncs (state copied)
  std::uint64_t bytes_full = 0;  // estimated bytes those syncs copied
  double seconds = 0.0;          // wall time inside sync()

  ReplicaSyncStats& operator+=(const ReplicaSyncStats& o) {
    syncs += o.syncs;
    full_syncs += o.full_syncs;
    bytes_full += o.bytes_full;
    seconds += o.seconds;
    return *this;
  }
};

class ProbeContext {
 public:
  explicit ProbeContext(const CellLibrary& lib);
  ~ProbeContext();
  ProbeContext(const ProbeContext&) = delete;
  ProbeContext& operator=(const ProbeContext&) = delete;

  /// Re-replicate from the live engine's state. Must be called from a
  /// single thread per context (the scheduler syncs each worker's context
  /// on that worker); `source` is read-only here. A no-op while
  /// in_sync_with(source). The replica engine and its Sta persist across
  /// syncs, so probe counters keep accumulating into one take_stats()
  /// window cursor.
  void sync(RewireEngine& source);

  /// Session this context's replica engine records into (null = ambient).
  /// The scheduler wires its session here; replicas rebuilt by later
  /// sync()s inherit it.
  void set_session(SessionContext* ctx);

  /// Sync cost counters since the last harvest; resets the window.
  ReplicaSyncStats take_sync_stats() {
    const ReplicaSyncStats window = sync_stats_;
    sync_stats_ = ReplicaSyncStats{};
    return window;
  }

  /// Read-only views over the replica state, for differential tests that
  /// assert resynced replicas match freshly built ones byte for byte.
  const Network& replica_net() const { return net_; }
  const Sta& replica_sta() const { return *sta_; }
  const Placement& replica_placement() const { return pl_; }

  /// True when this replica reflects the live engine's CURRENT state — the
  /// commit epoch AND the Sta state version. The epoch alone is not enough:
  /// an out-of-band run_full rebuilds
  /// the live timing state without advancing the commit epoch, so a replica
  /// adopted "late" in the same epoch would otherwise keep pre-restart
  /// arrivals and probe against stale timing.
  bool in_sync_with(RewireEngine& source) const;

  /// The replica engine (valid after the first sync). Probe through
  /// probe_with(scratch(), move) — commits on a replica are meaningless and
  /// must go through the live engine's arbiter instead.
  RewireEngine& engine() { return *engine_; }
  ProbeScratch& scratch() { return scratch_; }

  /// Replica probe counters accumulated since the last harvest; resets the
  /// window. The scheduler folds these into the live engine's totals.
  EngineStats take_stats();

 private:
  const CellLibrary& lib_;
  SessionContext* ctx_ = nullptr;

  Network net_;
  Placement pl_;
  std::unique_ptr<Sta> sta_;
  std::unique_ptr<RewireEngine> engine_;
  ProbeScratch scratch_;

  std::uint64_t epoch_ = 0;
  /// Source Sta state version captured at the last sync (see in_sync_with).
  std::uint64_t sta_version_ = 0;
  EngineStats harvested_;
  ReplicaSyncStats sync_stats_;
};

}  // namespace rapids
