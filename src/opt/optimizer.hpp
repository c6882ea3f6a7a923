// Post-placement performance optimization (paper §5-§6).
//
// Three algorithms on one two-phase engine (Coudert-style [2]):
//   gsg    — supergate-based rewiring only: each supergate's feasible pin
//            swaps act as alternative "library implementations";
//   GS     — gate sizing only (drive-strength reassignment);
//   gsg+GS — rewiring for gates covered by non-trivial supergates, sizing
//            for the rest (minimum perturbation of the placement).
//
// Phase A maximizes the minimum slack (equivalently: minimizes the critical
// delay against a fixed required time): the best move per group is found,
// moves are sorted by gain and applied greedily with re-validation.
// Phase B (relaxation) applies per-group moves that reduce the total
// arrival at the outputs without degrading the critical delay, to escape
// local minima. Phases iterate until no improvement.
//
// Both phases need some primary-output arrival to fall, which a move can
// only cause by touching a gate on that output's max-arrival path (float
// max and + are monotone, so an untouched max path holds its output at or
// above its old arrival). Before each round the damping margins are
// refreshed and mark those gates hot; supergates, swaps and resize groups
// that touch no hot gate are never probed (slack gating). Dropping them
// keeps the order of the rest, so the committed moves are exactly those of
// probing everything; `self_check` probes every gated move to prove it.
// Area recovery (FirstFit) spends slack instead and is not gated.
//
// Every phase is a generate -> shard -> parallel-probe -> arbitrate ->
// commit round through the ParallelRewireScheduler (src/parallel): probe
// evaluation fans out across `threads` weight-sharded workers, and the
// commit arbiter re-validates winners against the live state in a
// canonical order — so any `threads` value produces a bit-identical
// netlist to `threads = 1`.
//
// The existing placement is never perturbed: cells keep their exact
// locations; only inverters can be added or deleted (gsg modes).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "parallel/scheduler.hpp"
#include "place/placement.hpp"
#include "sym/gisg.hpp"
#include "timing/sta.hpp"
#include "util/stats.hpp"

namespace rapids {

class SessionContext;

enum class OptMode : std::uint8_t { Gsg, GateSizing, GsgPlusGS };

const char* to_string(OptMode mode);

struct OptimizerOptions {
  OptMode mode = OptMode::GsgPlusGS;
  /// Maximum A+B rounds.
  int max_iterations = 6;
  /// Minimum critical-delay gain (ns) for a move / an iteration to count.
  double min_gain = 1e-6;
  /// Restrict rewiring to leaf-leaf swaps (pure wire exchanges); internal
  /// subtree swaps are also tried when false.
  bool leaves_only_swaps = false;
  /// Cap on evaluated swap candidates per supergate (largest-gain-estimate
  /// first); guards against quadratic blowup on very wide supergates.
  int max_swaps_per_sg = 256;
  /// Probe worker count for the parallel scheduler (>= 1). The final
  /// netlist is bit-identical for every value; only wall-clock changes.
  int threads = 1;
  /// Unread: the optimizer is deterministic and draws no random numbers.
  /// Kept only because perfbench sets it (like sched_speculat* below).
  std::uint64_t seed = 0x5eed5ULL;
  /// Verify-every-commit mode: every committed swap move is
  /// SAT-proved function-preserving on its invalidated cone before it is
  /// kept, by one incremental proof session for the whole run
  /// (sat/proof_session.hpp). A failed proof throws InternalError.
  bool paranoid = false;
  /// Run every fast path beside its reference and throw InternalError
  /// ("self-check: ...") on any disagreement: incremental GISG extraction
  /// vs a fresh full extraction after every update; every swap list served
  /// from the per-slot cache vs re-enumeration; every move slack gating
  /// skips vs a live probe that must not lower either objective; damped
  /// probe timing vs an undamped replay; and (paranoid) the proof session
  /// vs a per-move window solver. Replica sync is checked at flow level
  /// by threads 1 vs N identity. The netlist is unchanged; only time
  /// grows.
  bool self_check = false;
  /// The caller just ran sta.run_full() against this exact network state
  /// (the flow driver does): skip the optimizer's own initial full pass.
  bool sta_is_fresh = false;
  /// Session the run's observability (trace spans, provenance, engine +
  /// proof-session instants) and worker pool belong to, threaded down
  /// through scheduler → probe contexts → replica engines. Null = the
  /// process-default context (singleton-backed — the exact pre-session
  /// behavior).
  SessionContext* session = nullptr;
};

struct OptimizerResult {
  double initial_delay = 0.0;
  double final_delay = 0.0;
  double initial_area = 0.0;
  double final_area = 0.0;
  int swaps_committed = 0;
  int resizes_committed = 0;
  int inverters_added = 0;
  int inverters_removed = 0;
  int iterations = 0;
  double seconds = 0.0;
  /// Total probe evaluations (replica workers + live arbiter) and the
  /// worker count they ran on.
  std::uint64_t probes = 0;
  int threads = 1;
  /// Committed moves discharged by the paranoid SAT prover (0 unless
  /// OptimizerOptions::paranoid).
  std::uint64_t moves_proved = 0;
  /// Moves rejected with neither proof nor refutation (full-miter budget).
  std::uint64_t paranoid_inconclusive = 0;
  /// Ordered per-commit proof outcomes (engine ProofVerdict values; empty
  /// unless paranoid). Differential tests assert self-checked and plain
  /// paranoid flows agree move-for-move.
  std::vector<std::uint8_t> paranoid_verdicts;
  /// Proof-session work counters (paranoid only). `proof_gates_encoded` is
  /// the headline the session exists to shrink.
  std::uint64_t proof_gates_encoded = 0;
  std::uint64_t proof_conflicts = 0;
  std::uint64_t proof_cache_hits = 0;
  std::uint64_t proof_roots_structural = 0;
  std::uint64_t proof_roots_by_sat = 0;
  /// Session solver clause-DB health (retention/eviction breakdown).
  std::uint64_t solver_learned_kept = 0;
  std::uint64_t solver_learned_deleted = 0;
  std::uint64_t solver_reduce_dbs = 0;
  // Supergate statistics from the first extraction (Table 1 cols 12-14).
  double coverage = 0.0;          // fraction of gates in non-trivial SGs
  int max_sg_inputs = 0;          // L
  std::size_t redundancies_found = 0;
  /// Partition-reuse counters: supergates re-extracted vs reused per
  /// incremental update, probe groups served from the per-slot cache, and
  /// full rebuilds (1 = only the initial extraction; more means an
  /// out-of-engine mutation forced the escape hatch). Merged across
  /// parallel workers.
  PartitionStats partition;
  /// Per-phase wall times (seconds): setup = initial STA + first
  /// extraction; probe = worker fan-out including replica sync; arbitrate =
  /// winner re-validation (commit time excluded); commit = live commits;
  /// sync = replica sync alone (a subset of probe wall time).
  double seconds_setup = 0.0;
  double seconds_probe = 0.0;
  double seconds_arbitrate = 0.0;
  double seconds_commit = 0.0;
  double seconds_sync = 0.0;
  /// Damping-margin refresh time, added to no phase: margins are refreshed
  /// only on the live engine, inside group building (seconds_groups, where
  /// slack gating reads them); replicas adopt them when they sync.
  double seconds_timing = 0.0;
  /// Propagation-shape counters (merged across live engine + replicas):
  /// worklist pops across every probe/commit propagation, pops suppressed by
  /// the slack-margin cutoff, exact undamped replays after an in-probe PO
  /// arrival decrease, PO-seeded margin recomputations (live engine
  /// only), and probes stopped early by their critical-delay cap.
  /// cutoffs / (propagated + cutoffs) is the damping rate;
  /// gates_propagated / probes is the per-probe cost the damping and the
  /// cap exist to flatten. All five are thread-invariant.
  std::uint64_t gates_propagated = 0;
  std::uint64_t damp_cutoffs = 0;
  std::uint64_t damp_fallbacks = 0;
  std::uint64_t margin_refreshes = 0;
  std::uint64_t probes_bounded = 0;
  /// Replica-sync cost (zero at --threads 1, which probes the live engine
  /// and never syncs): epoch-advancing syncs and the bytes they copied.
  std::uint64_t replica_full_syncs = 0;
  std::uint64_t replica_sync_bytes_full = 0;
  /// Always zero (every sync copies the whole state); kept only because
  /// perfbench reads them, like pruned_groups_cached below.
  std::uint64_t replica_delta_syncs = 0;
  std::uint64_t replica_delta_commits = 0;
  std::uint64_t replica_sync_bytes_delta = 0;
  /// Swap candidates materialized by enumeration.
  std::uint64_t candidates_enumerated = 0;
  /// Always zero (truncated swap lists are never cached); kept only because
  /// perfbench reads it, like sched_speculat* below.
  std::uint64_t pruned_groups_cached = 0;
  /// Scheduler round/arbitration counters (merged across phases):
  /// committed/accepted is the arbitration yield, revalidation_rejects
  /// the wasted winners, and conflicted the winners whose live re-probe
  /// differed from their round-baseline probe. All thread-invariant.
  std::uint64_t sched_rounds = 0;
  std::uint64_t sched_accepted = 0;
  std::uint64_t sched_conflicted = 0;
  std::uint64_t sched_revalidation_rejects = 0;
  /// Always zero; kept only because perfbench reads them.
  std::uint64_t sched_stale_cross_sg = 0;
  std::uint64_t sched_speculative_probes = 0;
  std::uint64_t sched_speculation_hits = 0;
  std::uint64_t sched_speculation_wasted = 0;
  /// Distribution of committed-move gains (ns), one per ProbePolicy (see
  /// SchedulerStats::gain_hist), and of per-proof SAT conflict counts
  /// (paranoid only) — p50/p90/p99 in the flow summary.
  std::array<Histogram, kNumProbePolicies> gain_hist;
  Histogram proof_conflict_hist;
  /// Remaining phase buckets so `phases:` sums to `seconds`: group building
  /// (live margin refresh, slack gating and candidate generation incl.
  /// swap-cache fills), finalize (post-loop cleanup + final STA), and
  /// whatever is left over. The optimizer warns if unattributed time
  /// exceeds 5% of the total.
  double seconds_groups = 0.0;
  double seconds_finalize = 0.0;
  double seconds_unattributed = 0.0;

  double improvement_percent() const {
    return initial_delay > 0 ? 100.0 * (initial_delay - final_delay) / initial_delay : 0.0;
  }
  double area_delta_percent() const {
    return initial_area > 0 ? 100.0 * (final_area - initial_area) / initial_area : 0.0;
  }
};

/// Run the selected optimizer. `sta` must be bound to (net, lib, placement)
/// and is left consistent (full recompute) on return.
OptimizerResult optimize(Network& net, Placement& placement, const CellLibrary& lib,
                         Sta& sta, const OptimizerOptions& options = {});

}  // namespace rapids
