// RewireEngine — the one transactional probe/commit/rollback surface for
// post-placement moves (paper §5's inner loop).
//
// The paper's pitch is that symmetry-based rewiring is FAST: thousands of
// candidate moves are evaluated per circuit by applying a move, incrementally
// re-timing, reading the objective and rolling back exactly. This engine
// owns that choreography once, over the two move kinds the optimizer
// generates:
//
//   Swap    — pin swap inside one supergate (rewire/swap)
//   Resize  — drive-strength reassignment    (sizing)
//
// Cross-supergate group exchange (Theorem 2) is not an engine move: the
// paper's optimizer excludes it, and rewire/ applies it as a standalone
// transform.
//
// Replica engines (parallel/probe_context) only probe. Every commit, every
// paranoid proof and every partition update runs on the one live engine.
//
// The engine also owns the GisgPartition lifecycle. The partition is a
// LONG-LIVED index maintained incrementally: every commit records its
// affected gates (the rewired pins, old/new drivers, created inverters and
// their fanout frontier) into a dirty set, and the next partition() call
// re-extracts only the intersecting fanout-free regions (sym/gisg's
// reextract_region), splicing them into stable supergate slots. Candidates
// extracted before a commit are stale exactly when their supergate's slot
// generation changed (see rewire/swap.hpp's contract); the epoch remains as
// the coarse whole-partition counter, and invalidate_partition() as the
// full-rebuild escape hatch for out-of-engine mutations.
//
// Probing is allocation-free after warm-up: the swap edit record, the
// dirty-net scratch and the STA journal all reuse their storage, which is
// what bench/micro_engine gauges.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "rewire/swap.hpp"
#include "sat/proof_session.hpp"
#include "sat/window.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"
#include "util/stats.hpp"

namespace rapids {

class SessionContext;
class Tracer;

/// The two timing objectives every probe reports (phase A optimizes
/// `critical`, phase B the relaxation objective `sum_po`).
struct EngineObjective {
  double critical = 0.0;
  double sum_po = 0.0;
};

/// One candidate transformation: a swap or a resize.
struct EngineMove {
  enum class Kind : std::uint8_t { Swap, Resize };
  Kind kind = Kind::Swap;
  SwapCandidate swap_cand;     // Kind::Swap
  GateId gate = kNullGate;     // Kind::Resize
  int new_cell = -1;           // Kind::Resize

  static EngineMove swap(const SwapCandidate& c) {
    EngineMove m;
    m.kind = Kind::Swap;
    m.swap_cand = c;
    return m;
  }
  static EngineMove resize(GateId g, int cell) {
    EngineMove m;
    m.kind = Kind::Resize;
    m.gate = g;
    m.new_cell = cell;
    return m;
  }
};

/// Paranoid-mode prover configuration.
struct ParanoidOptions {
  /// Conflict budget per window-root miter (< 0: unlimited).
  std::int64_t window_conflict_limit = 1'000'000;
  /// Conflict budget per PO for the full-miter escalation tier.
  std::int64_t miter_conflict_limit = 4'000'000;
};

/// Per-commit proof outcome, recorded in order so differential tests can
/// assert two flows prove the SAME move set move-for-move.
enum class ProofVerdict : std::uint8_t {
  WindowProved,     // window miter UNSAT (structurally or by SAT)
  EscalatedProved,  // window failed, whole-network miter proved; move kept
  Inconclusive,     // even the full miter ran out of budget; move rejected
};

/// Commit counters, accumulated across the engine's lifetime (the optimizer
/// copies them into OptimizerResult). Addable so per-worker replicas can be
/// merged into the live engine's counters on demand.
struct EngineStats {
  int swaps_committed = 0;
  int resizes_committed = 0;
  int inverters_added = 0;
  std::uint64_t probes = 0;
  // Propagation-shape counters sampled from the Sta: worklist pops across
  // all probe/commit transactions, margin suppressions, PO-decrease
  // fallback replays, and damping-margin refreshes.
  std::uint64_t gates_propagated = 0;
  std::uint64_t damp_cutoffs = 0;
  std::uint64_t damp_fallbacks = 0;
  std::uint64_t margin_refreshes = 0;

  EngineStats& operator+=(const EngineStats& o) {
    swaps_committed += o.swaps_committed;
    resizes_committed += o.resizes_committed;
    inverters_added += o.inverters_added;
    probes += o.probes;
    gates_propagated += o.gates_propagated;
    damp_cutoffs += o.damp_cutoffs;
    damp_fallbacks += o.damp_fallbacks;
    margin_refreshes += o.margin_refreshes;
    return *this;
  }
};

/// Reusable move-application scratch: the edit/undo records one probe or
/// commit needs. Split out of the engine so each logical probe stream (the
/// engine's own loop, every parallel ProbeContext, the commit arbiter) owns
/// its storage — the precondition for fanning probe evaluation out across
/// workers without sharing mutable engine state. Never shrinks; a steady
/// probe loop through one scratch allocates nothing.
struct ProbeScratch {
  SwapEdit swap_edit;
  std::vector<GateId> dirty_scratch;
  int saved_cell = -1;
};

class RewireEngine {
 public:
  /// All references must outlive the engine. `sta` must be bound to
  /// (net, lib, placement). Gate-id recycling is enabled on `net` for the
  /// engine's lifetime (restored on destruction).
  RewireEngine(Network& net, Placement& placement, const CellLibrary& lib, Sta& sta);
  ~RewireEngine();
  RewireEngine(const RewireEngine&) = delete;
  RewireEngine& operator=(const RewireEngine&) = delete;

  Network& net() { return net_; }
  Placement& placement() { return placement_; }
  Sta& sta() { return sta_; }
  const CellLibrary& lib() const { return lib_; }

  /// Session this engine records into (trace spans, proof-session
  /// instants). Null (the default) means the thread-ambient context —
  /// identical behavior to before sessions existed. The scheduler wires
  /// its session into the live engine and every replica engine.
  void set_session(SessionContext* ctx);

  // --- partition lifecycle -------------------------------------------------

  /// Current supergate partition, maintained lazily: the first call (or the
  /// first after invalidate_partition()) runs a full extraction; later
  /// calls splice committed moves' dirty regions into the persistent
  /// partition incrementally — O(affected region), not O(network). Slots of
  /// untouched supergates keep their index and generation across commits.
  const GisgPartition& partition();

  /// Force full re-extraction on the next partition() call. Commits no
  /// longer need this (they accumulate dirty regions instead); call it
  /// after mutating the network OUTSIDE the engine (redundancy removal,
  /// dangling-inverter cleanup, buffering, ...) — in particular after ANY
  /// gate deletion, which incremental maintenance does not model. An
  /// external mutation also invalidates every cone the paranoid proof
  /// session cached (the session only tracks the proved commit stream), so
  /// the session cache is wiped here too.
  void invalidate_partition() {
    partition_valid_ = false;
    pending_dirty_.clear();
    if (session_) session_->invalidate_all();
  }

  /// Self-check mode: every fast path runs beside its reference and any
  /// disagreement throws InternalError ("self-check: ..."). After every
  /// incremental partition update a fresh full extraction must be
  /// canonically equal; every damped probe is replayed undamped (Sta
  /// damp-diff); in paranoid mode a per-move sat::WindowChecker proves each
  /// commit beside the proof session, which must prove every move the
  /// reference proves. Replicas inherit the switch on their first sync (their
  /// probes replay undamped). Costly —
  /// tests, fuzzing and `flow --self-check` only.
  void set_self_check(bool on) {
    self_check_ = on;
    sta_.set_damp_diff(on);
    if (!on) reference_prover_.reset();
  }
  bool self_check() const { return self_check_; }

  /// Partition maintenance counters over the engine's lifetime.
  const PartitionStats& partition_stats() const { return pstats_; }

  /// Bumped by every commit. Moves remain probe/undo safe across epochs:
  /// they reference gates, which have stable ids.
  std::uint64_t epoch() const { return epoch_; }

  // --- transactional move evaluation ---------------------------------------

  /// Evaluate `move` inside an STA transaction and roll everything back
  /// exactly (network, placement, timing). Thousands of probes per second;
  /// allocation-free after warm-up.
  EngineObjective probe(const EngineMove& move);

  /// As probe(), but through a caller-owned scratch. The result is a pure
  /// function of (network/placement/timing state, move): the probe restores
  /// the network, placement, STA journal AND the recycled-id free stack
  /// exactly, so interleaving probes from different scratches — or
  /// replaying them on a state replica — yields bit-identical objectives.
  EngineObjective probe_with(ProbeScratch& scratch, const EngineMove& move);

  /// Apply `move` and keep it. Bumps the epoch and invalidates the
  /// partition. Returns the post-commit objective. In paranoid mode the
  /// move is first SAT-proved function-preserving on its invalidated cone;
  /// a confirmed functional change rolls the move back and throws
  /// InternalError, while an escalated full miter that exhausts its
  /// conflict budget rolls back and rejects just this move (counted in
  /// paranoid_inconclusive()).
  EngineObjective commit(const EngineMove& move);

  /// Verify-every-commit mode: each committed Swap move is proved
  /// function-preserving at its supergate root before it is kept, by one
  /// persistent ProofSession for the engine's lifetime. Resize moves do not
  /// change logic and are exempt. Every commit runs through this check.
  void set_paranoid(bool on) { set_paranoid(on, ParanoidOptions{}); }
  void set_paranoid(bool on, const ParanoidOptions& options);
  bool paranoid() const { return paranoid_on_; }

  /// Proof-session counters (null when paranoid mode is off or no proof
  /// has run yet — the session builds lazily).
  const sat::ProofSessionStats* session_stats() const {
    return session_ ? &session_->stats() : nullptr;
  }
  /// The live session itself (solver-level stats for benches; null until
  /// the first paranoid proof).
  const sat::ProofSession* proof_session() const { return session_.get(); }
  /// Moves checked by the paranoid proof session.
  std::uint64_t paranoid_moves_checked() const;
  /// Moves rejected because even the escalated full miter ran out of
  /// conflict budget (neither proved nor refuted).
  std::uint64_t paranoid_inconclusive() const { return paranoid_inconclusive_; }
  /// Ordered per-commit proof outcomes (empty unless paranoid). Flows that
  /// commit the same stream must produce identical sequences — the
  /// property the differential tests pin.
  const std::vector<ProofVerdict>& paranoid_verdicts() const {
    return paranoid_verdicts_;
  }
  /// Distribution of SAT conflicts per proved commit (paranoid only; counts
  /// window + any escalation work attributed to one move).
  const Histogram& proof_conflict_hist() const { return proof_conflict_hist_; }

  /// Merge a replica engine's counters (probe workers evaluate on replicas;
  /// their probe counts belong to this engine's lifetime totals).
  void absorb_stats(const EngineStats& s) { stats_ += s; }

  /// Bench helper: commit `move`, then commit its exact inverse, leaving
  /// the circuit in its pre-call state (two committed transactions).
  void commit_and_revert(const EngineMove& move);

  const EngineStats& stats() const { return stats_; }

  // --- bounded-cone damped probing -----------------------------------------

  // Probes always run slack-margin damped; commits always run undamped so
  // the stored inter-transaction state stays the exact fixed point
  // everything else — margin refresh, arrival-gap pruning, replica sync —
  // reads. Objective-exact by construction (self-check replays it).

  /// Refresh the Sta's damping margins if stale (round granularity) and
  /// pull the Sta's propagation counters into this engine's stats window.
  void refresh_timing_margins();

 private:
  /// Apply the move's network edit and mark dirty timing state. Fills the
  /// scratch's reusable undo records.
  void apply_and_invalidate(ProbeScratch& scratch, const EngineMove& move);
  /// Exact inverse of apply_and_invalidate's network edit (STA rollback is
  /// separate).
  void undo_network_edit(ProbeScratch& scratch, const EngineMove& move);
  void invalidate_dirty(ProbeScratch& scratch, std::span<const GateId> dirty);
  void count_commit(const EngineMove& move);
  /// Record a committed move's affected gates (and their fanout frontier)
  /// into the pending dirty set consumed by the next partition() call.
  /// Must run before count_commit() detaches the edit records.
  void mark_commit_dirty(const EngineMove& move);
  /// Paranoid mode: encode the pre-move window of the swap's observation
  /// root over the two rewired gates.
  void begin_paranoid_proof(const EngineMove& move);

  Network& net_;
  Placement& placement_;
  const CellLibrary& lib_;
  Sta& sta_;

  GisgPartition partition_;
  bool partition_valid_ = false;
  std::uint64_t epoch_ = 0;
  /// Gates touched by commits since the last partition() materialization;
  /// consumed (and cleared) by the next incremental update.
  std::vector<GateId> pending_dirty_;
  /// Reusable region-update scratch: keeps incremental partition updates
  /// allocation-free (stamped visit arrays, held-capacity worklists).
  GisgRegionScratch gisg_scratch_;
  bool self_check_ = false;
  PartitionStats pstats_;

  EngineStats stats_;
  // Cursor over the Sta's monotonic propagation counters: the Sta outlives
  // engine stat windows (and replica engines share one Sta per context), so
  // each engine folds only the delta since its last sample into stats_.
  std::uint64_t sta_seen_gates_propagated_ = 0;
  std::uint64_t sta_seen_damp_cutoffs_ = 0;
  std::uint64_t sta_seen_damp_fallbacks_ = 0;
  std::uint64_t sta_seen_margin_refreshes_ = 0;
  /// Fold (sta counters − cursor) into stats_ and advance the cursor.
  void sample_sta_counters();

  // The engine's own probe/commit scratch (never shrinks; steady state
  // allocates nothing). External probe streams pass their own through
  // probe_with().
  ProbeScratch scratch_;
  bool prev_recycling_ = false;

  /// Construct the proof session (and, under self-check, the per-move
  /// reference prover) if missing (lazy: a run that commits no swap builds
  /// no solver).
  void ensure_prover();

  /// Tracer the engine's spans record on: the wired session's, else the
  /// thread-ambient one (implemented in the .cpp — SessionContext is
  /// incomplete here).
  Tracer& span_tracer() const;

  SessionContext* ctx_ = nullptr;

  // Paranoid-mode provers, created lazily by the first proof: the
  // persistent proof session, plus (self-check only) the throwaway-solver
  // per-move reference it is checked against.
  std::unique_ptr<sat::ProofSession> session_;
  std::unique_ptr<sat::WindowChecker> reference_prover_;
  bool paranoid_on_ = false;
  ParanoidOptions paranoid_options_;
  std::uint64_t paranoid_inconclusive_ = 0;
  std::vector<ProofVerdict> paranoid_verdicts_;
  Histogram proof_conflict_hist_;
};

}  // namespace rapids
