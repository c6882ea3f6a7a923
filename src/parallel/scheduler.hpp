// Parallel rewiring scheduler: weight-balanced probe fan-out with
// deterministic commit arbitration.
//
// One optimization round is a pipeline:
//
//   generate   — the caller (optimizer phase, bench) builds candidate
//                GROUPS: one supergate's swaps, one gate's resizes. A round
//                commits at most one move per group.
//   shard      — groups are dealt, in canonical group order, onto the shard
//                with the least probe weight so far (weight = move count;
//                see assign_shards). Which shard probes a group changes no
//                result: every probe is a pure function of replica state.
//   probe      — a fixed worker pool evaluates shards concurrently. Each
//                worker owns a ProbeContext — a full replica of the live
//                state synced per epoch — so probing shares no mutable
//                state and every probe is a pure function of (live state,
//                move). Workers select the best move per group under the
//                round's policy.
//   arbitrate  — accepted moves are ordered canonically (gain, then group
//                index — a strict total order independent of worker count
//                and scheduling), re-probed against the LIVE engine state
//                at the current epoch, and committed only if they still
//                pay. Commits are serial, on the one live engine, in that
//                canonical order. This live re-probe is the only conflict
//                check: a winner whose live objective is not bit-identical
//                to its round-baseline probe is counted `conflicted`.
//
// The round is a barrier: every probe of round N finishes before round N's
// arbitration starts, and round N+1's probes see round N's commits. Rounds
// are deliberately not pipelined: a next-round probe run behind arbitration
// is only reusable when the round commits nothing, so speculating was
// measured to nearly double probe work at four threads for the same
// netlist.
//
// Determinism guarantee: for a fixed candidate stream, the committed move
// sequence — and therefore the final netlist, bit for bit — is identical
// for every worker count. Probe results are worker-independent (replica
// sync is byte-exact, probes restore state exactly, star nets are built in
// canonical order), the per-group selection is a pure left-fold over the
// group's move list, and arbitration consumes per-group results in a
// scheduling-independent order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "parallel/probe_context.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rapids {

class SessionContext;

/// The unit that gets at most one committed move per round.
struct ProbeGroup {
  std::vector<EngineMove> moves;
};

/// What "best move of a group" means for a round.
enum class ProbePolicy : std::uint8_t {
  /// Maximize critical-delay gain (phase A); threshold = minimum gain.
  MinCritical,
  /// Maximize sum-of-PO-arrival gain without degrading the critical delay
  /// (phase B); threshold = minimum sum gain.
  Relaxation,
  /// First move (caller pre-orders, e.g. by area ascending) whose probed
  /// critical delay stays within threshold (an absolute budget, not a
  /// gain); used by area recovery.
  FirstFit,
};

/// Per-group outcome of a probe round.
struct GroupResult {
  int group = -1;
  bool has_move = false;
  EngineMove move;
  int move_index = -1;     // index of `move` in the group's move list
  int probes = 0;          // probe evaluations this group cost
  double crit_gain = 0.0;  // round-baseline critical minus probed critical
  double sum_gain = 0.0;   // round-baseline sum_po minus probed sum_po
  EngineObjective probed;  // round-baseline probe objective of `move`
};

/// Shard assignment for a round's groups: returns shard_of[g] in
/// [0, num_shards). Each group goes, in canonical group order, to the shard
/// with the least weight so far (ties: lowest shard). `weights[g]` is group
/// g's probe cost — the scheduler passes the move count, one replica probe
/// per move. Balancing on weight, not group count, keeps per-worker probe
/// totals even when group sizes are skewed (one supergate with 100 swap
/// pairs next to many 1-resize groups). Pure function of its arguments.
std::vector<int> assign_shards(std::span<const std::uint64_t> weights,
                               int num_shards);

struct SchedulerOptions {
  /// Worker count (>=1). 1 runs the identical pipeline inline — the
  /// determinism reference point.
  int threads = 1;
  /// Session the round's observability (trace spans, provenance records)
  /// and worker pool belong to. Null = the process-default context: the
  /// scheduler owns a private pool and records on the singletons — the
  /// exact pre-session behavior. Owned sessions lend their persistent pool
  /// (warm across flows) and their private tracer/provenance.
  SessionContext* session = nullptr;
};

struct SchedulerStats {
  std::uint64_t rounds = 0;
  std::uint64_t worker_probes = 0;        // replica-side probe evaluations
  std::uint64_t arbiter_probes = 0;       // live re-validation probes
  std::uint64_t accepted = 0;             // per-group winners entering arbitration
  std::uint64_t committed = 0;
  std::uint64_t conflicted = 0;           // live re-probe != round-baseline probe
  std::uint64_t revalidation_rejects = 0; // winners whose live gain evaporated
  // Phase wall times: probe_round (worker fan-out incl. replica sync),
  // arbitration overhead, and live commits (disjoint — arbitrate excludes
  // the commit time). Replica sync cost is broken out in `sync`;
  // seconds_timing is the replicas' damping-margin refresh time, a quoted
  // SUBSET of seconds_probe (the live engine's margins are the caller's).
  double seconds_probe = 0.0;
  double seconds_arbitrate = 0.0;
  double seconds_commit = 0.0;
  double seconds_timing = 0.0;
  ReplicaSyncStats sync;
  /// Distribution of live-validated gains over committed moves (critical
  /// gain for MinCritical/FirstFit rounds, sum-of-PO gain for Relaxation).
  /// Filled on the serial arbitration path only, so it is bit-identical for
  /// every worker count.
  Histogram gain_hist;
};

class ParallelRewireScheduler {
 public:
  /// `engine` is the live engine: probes replicate FROM it, commits go
  /// THROUGH it. It must outlive the scheduler.
  ParallelRewireScheduler(RewireEngine& engine, const SchedulerOptions& options);
  ParallelRewireScheduler(const ParallelRewireScheduler&) = delete;
  ParallelRewireScheduler& operator=(const ParallelRewireScheduler&) = delete;

  int threads() const { return pool_->workers(); }

  /// Shard `groups` by probe weight and probe them in parallel against the
  /// live state. Returns one result per group, indexed like `groups`,
  /// independent of worker count. (Spans accept plain vectors; the
  /// optimizer passes its pooled group storage without copying.) Replicas
  /// refresh their own damping margins; refresh the live engine's
  /// (RewireEngine::refresh_timing_margins) before the round for damped
  /// live probes.
  std::vector<GroupResult> probe_round(std::span<const ProbeGroup> groups,
                                       ProbePolicy policy, double threshold);

  /// probe_round, then re-validate the round's winners against the live
  /// epoch and commit the survivors in canonical order. Returns the number
  /// committed.
  int run_round(std::span<const ProbeGroup> groups, ProbePolicy policy,
                double threshold);

  const SchedulerStats& stats() const { return stats_; }
  /// Per-worker replica probe counts (merged on demand; workers quiescent
  /// between rounds).
  const ShardedStats& worker_probe_stats() const { return probe_stats_; }

 private:
  /// Arbitration half of run_round. A FirstFit winner whose live
  /// re-validation fails falls back to replaying the serial scan for its
  /// group (every candidate probed live, in order, first fit wins). Groups
  /// with no replica winner are pruned before arbitration — the round's
  /// parallel win, and its one deliberate divergence from the serial
  /// algorithm.
  int arbitrate_and_commit(std::vector<GroupResult> results,
                           std::span<const ProbeGroup> groups, ProbePolicy policy,
                           double threshold);

  GroupResult probe_group(RewireEngine& eng, ProbeScratch& scratch, int group_index,
                          const ProbeGroup& group, ProbePolicy policy,
                          double threshold, double base_critical,
                          double base_sum) const;

  /// Absorb per-context engine/sync counters into the live engine and
  /// scheduler totals; returns the replica probe count of the harvested
  /// window. Main thread only, workers quiescent.
  std::uint64_t harvest_worker_counters();

  RewireEngine& engine_;
  SchedulerOptions options_;
  /// Never null: the configured session, or the process-default context.
  SessionContext* session_;
  /// The session's lent pool, or owned_pool_ when the session lends none
  /// (the process-default context). Never null after construction.
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<ProbeContext>> contexts_;
  ProbeScratch serial_scratch_;  // single-worker fast path probes the live engine
  SchedulerStats stats_;
  ShardedStats probe_stats_;
};

}  // namespace rapids
