#include "engine/rewire_engine.hpp"

#include <algorithm>

#include "session/session.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

namespace {
/// Free-stack floor maintained at construction and after every commit.
/// A swap inserts at most two inverters and a resize none, so 64 is ample;
/// the floor also decides which ids commits mint, so changing it renames
/// inserted gates in the output. probe_with asserts the id space never
/// grows mid-probe, so an overflow is loud. Sorted fanout lists do not
/// make the reserve redundant: ids are the sort key, so a probe that
/// minted a fresh id would still file its pins by probe history.
constexpr std::size_t kIdReserve = 64;
}  // namespace

RewireEngine::RewireEngine(Network& net, Placement& placement, const CellLibrary& lib,
                           Sta& sta)
    : net_(net), placement_(placement), lib_(lib), sta_(sta),
      prev_recycling_(net.id_recycling()) {
  // Probe loops insert and delete inverters at megahertz rates; recycling
  // tombstoned ids keeps id_bound() — and every id-indexed STA/placement
  // array — at a fixed size for the engine's lifetime.
  net_.set_id_recycling(true);
  // Fanout order feeds supergate extraction (and through it the
  // scheduler's (gain, group) commit order) and the STA worklist's pop
  // order. Sorted lists make it a function of the fanout set, so a probe's
  // undo restores it exactly and the live network and every replica copy
  // of it walk fanouts alike, however many probes each ran.
  net_.sort_fanouts();
  // Pre-seed the recycled-id reserve so NO probe ever has to mint a fresh
  // id: ids key fanout and star-net branch order (timing arithmetic), so
  // an id allocation that depended on how many probes already ran would
  // make probe objectives history-dependent — the parallel-vs-serial
  // determinism bug the differential fuzzer caught. Commits top the
  // reserve back up (commit histories are identical across worker counts).
  net_.reserve_recycled_ids(kIdReserve);
  // The Sta may predate this engine (replica contexts rebuild engines over
  // a persistent Sta): start the counter cursor at its current values so
  // stats_ only ever absorbs propagation work done under this engine.
  sta_seen_gates_propagated_ = sta_.gates_propagated();
  sta_seen_damp_cutoffs_ = sta_.damp_cutoffs();
  sta_seen_damp_fallbacks_ = sta_.damp_fallbacks();
  sta_seen_margin_refreshes_ = sta_.margin_refreshes();
}

void RewireEngine::sample_sta_counters() {
  stats_.gates_propagated += sta_.gates_propagated() - sta_seen_gates_propagated_;
  stats_.damp_cutoffs += sta_.damp_cutoffs() - sta_seen_damp_cutoffs_;
  stats_.damp_fallbacks += sta_.damp_fallbacks() - sta_seen_damp_fallbacks_;
  stats_.margin_refreshes += sta_.margin_refreshes() - sta_seen_margin_refreshes_;
  sta_seen_gates_propagated_ = sta_.gates_propagated();
  sta_seen_damp_cutoffs_ = sta_.damp_cutoffs();
  sta_seen_damp_fallbacks_ = sta_.damp_fallbacks();
  sta_seen_margin_refreshes_ = sta_.margin_refreshes();
}

void RewireEngine::refresh_timing_margins() {
  if (!sta_.margins_valid() && !sta_.in_transaction()) {
    sta_.refresh_damping_margins();
  }
  sample_sta_counters();
}

RewireEngine::~RewireEngine() { net_.set_id_recycling(prev_recycling_); }

void RewireEngine::set_session(SessionContext* ctx) {
  ctx_ = ctx;
  // A prover built before the session was wired would keep emitting on the
  // old tracer; re-point it.
  if (session_) session_->set_tracer(ctx_ != nullptr ? &ctx_->tracer() : nullptr);
}

Tracer& RewireEngine::span_tracer() const {
  return ctx_ != nullptr ? ctx_->tracer() : current_tracer();
}

const GisgPartition& RewireEngine::partition() {
  if (!partition_valid_) {
    TraceSpan extract_span(span_tracer(), "extract", "extract_full");
    extract_gisg_into(partition_, net_);
    partition_valid_ = true;
    pending_dirty_.clear();
    ++pstats_.full_rebuilds;
  } else if (!pending_dirty_.empty()) {
    TraceSpan extract_span(span_tracer(), "extract", "extract_incremental");
    extract_span.set_arg("dirty_gates", static_cast<std::int64_t>(pending_dirty_.size()));
    pstats_ += reextract_region(partition_, net_, pending_dirty_, &gisg_scratch_);
    pending_dirty_.clear();
    if (self_check_) {
      // Reference: the incrementally maintained partition must be
      // canonically identical to a fresh full extraction of the current
      // network.
      const GisgPartition fresh = extract_gisg(net_);
      std::string diag;
      if (!partitions_canonically_equal(partition_, fresh, &diag)) {
        throw InternalError("self-check: extract-diff mismatch: " + diag);
      }
    }
  }
  return partition_;
}

void RewireEngine::mark_commit_dirty(const EngineMove& move) {
  // Nothing to record while the partition awaits a full rebuild anyway.
  if (!partition_valid_) return;
  // A touched gate's own supergate must be re-derived, and so must the
  // supergates of its CURRENT fanout gates: a fanout-count change flips the
  // gate's absorbability, which is owned by the covering supergate above it
  // (sym/gisg's region closure catches anything subtler).
  auto touch = [this](GateId g) {
    if (g == kNullGate || g >= net_.id_bound() || net_.is_deleted(g)) return;
    pending_dirty_.push_back(g);
    for (const Pin& p : net_.fanouts(g)) pending_dirty_.push_back(p.gate);
  };
  switch (move.kind) {
    case EngineMove::Kind::Swap:
      touch(move.swap_cand.pin_a.gate);
      touch(move.swap_cand.pin_b.gate);
      touch(net_.driver_of(move.swap_cand.pin_a));
      touch(net_.driver_of(move.swap_cand.pin_b));
      // dirty_nets holds the old drivers, reused inverter inputs and added
      // inverters — every driver whose fanout set changed.
      for (const GateId d : scratch_.swap_edit.dirty_nets) touch(d);
      for (const GateId g : scratch_.swap_edit.added_inverters) touch(g);
      break;
    case EngineMove::Kind::Resize:
      // Cell bindings are invisible to extraction: a resize leaves the
      // partition untouched (the first commit kind with zero re-extraction
      // cost — GS-heavy flows reuse every supergate across rounds).
      break;
  }
}

void RewireEngine::invalidate_dirty(ProbeScratch& scratch,
                                    std::span<const GateId> dirty) {
  // Deduplicate into the reusable scratch without sorting: dirty sets are
  // tiny (2-6 entries for swaps), a linear containment check beats
  // sort+unique and allocates nothing.
  scratch.dirty_scratch.clear();
  for (const GateId d : dirty) {
    if (std::find(scratch.dirty_scratch.begin(), scratch.dirty_scratch.end(), d) ==
        scratch.dirty_scratch.end()) {
      scratch.dirty_scratch.push_back(d);
    }
  }
  for (const GateId d : scratch.dirty_scratch) sta_.invalidate_net(d);
}

void RewireEngine::apply_and_invalidate(ProbeScratch& scratch,
                                        const EngineMove& move) {
  switch (move.kind) {
    case EngineMove::Kind::Swap: {
      apply_swap_into(net_, placement_, lib_, move.swap_cand, scratch.swap_edit);
      invalidate_dirty(scratch, scratch.swap_edit.dirty_nets);
      break;
    }
    case EngineMove::Kind::Resize: {
      scratch.saved_cell = net_.cell(move.gate);
      net_.set_cell(move.gate, move.new_cell);
      // Input pin caps changed: every fanin net sees a new load; the gate's
      // own drive changed as well.
      invalidate_dirty(scratch, net_.fanins(move.gate));
      sta_.touch_gate(move.gate);
      break;
    }
  }
}

void RewireEngine::undo_network_edit(ProbeScratch& scratch, const EngineMove& move) {
  switch (move.kind) {
    case EngineMove::Kind::Swap:
      undo_swap(net_, placement_, scratch.swap_edit);
      break;
    case EngineMove::Kind::Resize:
      net_.set_cell(move.gate, scratch.saved_cell);
      break;
  }
}

EngineObjective RewireEngine::probe(const EngineMove& move) {
  return probe_with(scratch_, move);
}

EngineObjective RewireEngine::probe_with(ProbeScratch& scratch,
                                         const EngineMove& move) {
  ++stats_.probes;
  const std::size_t bound_before = net_.id_bound();
  sta_.begin();
  apply_and_invalidate(scratch, move);
  // Probes run damped (objective-exact bounded-cone propagation); every
  // commit path leaves damping off so committed state is the true fixed
  // point. Damping stays disarmed between calls.
  sta_.set_damping_active(true);
  sta_.propagate();
  sta_.set_damping_active(false);
  const EngineObjective obj{sta_.critical_delay(), sta_.sum_po_arrival()};
  undo_network_edit(scratch, move);
  sta_.rollback();
  sample_sta_counters();
  // Growing the id space mid-probe would leak probe history into future id
  // allocation (and through star-net branch order, into timing) — the
  // reserve must always cover a single move's inserts.
  RAPIDS_ASSERT_MSG(net_.id_bound() == bound_before,
                    "probe outgrew the recycled-id reserve");
  return obj;
}

void RewireEngine::count_commit(const EngineMove& move) {
  switch (move.kind) {
    case EngineMove::Kind::Swap:
      ++stats_.swaps_committed;
      stats_.inverters_added +=
          static_cast<int>(scratch_.swap_edit.added_inverters.size());
      // The edit record now owns committed gates; detach it so the next
      // apply_swap_into does not trip the "still applied" guard.
      scratch_.swap_edit.added_inverters.clear();
      scratch_.swap_edit.applied = false;
      break;
    case EngineMove::Kind::Resize:
      ++stats_.resizes_committed;
      break;
  }
}

void RewireEngine::set_paranoid(bool on, const ParanoidOptions& options) {
  paranoid_options_ = options;
  paranoid_on_ = on;
  // Prover construction is LAZY (ensure_prover, on the first proof).
  if (!on) {
    session_.reset();
    reference_prover_.reset();
  }
}

void RewireEngine::ensure_prover() {
  RAPIDS_ASSERT(paranoid_on_);
  if (!session_) {
    sat::ProofSession::Options sopt;
    sopt.conflict_limit = paranoid_options_.window_conflict_limit;
    session_ = std::make_unique<sat::ProofSession>(sopt);
    session_->set_tracer(ctx_ != nullptr ? &ctx_->tracer() : nullptr);
  }
  if (self_check_ && !reference_prover_) {
    reference_prover_ = std::make_unique<sat::WindowChecker>(
        paranoid_options_.window_conflict_limit);
  }
}

std::uint64_t RewireEngine::paranoid_moves_checked() const {
  return session_ ? session_->stats().moves_checked : 0;
}

void RewireEngine::begin_paranoid_proof(const EngineMove& move) {
  RAPIDS_ASSERT_MSG(move.kind == EngineMove::Kind::Swap,
                    "resize moves are exempt from proofs");
  // Observation root: the root of the supergate the swap rewires. Swap
  // candidates survive across epochs (they reference stable gate ids), but
  // their sg_index refers to the partition they were extracted from —
  // resolve the pin's supergate in the CURRENT partition instead.
  const SuperGate* sg = partition().sg_containing(move.swap_cand.pin_a.gate);
  RAPIDS_ASSERT_MSG(sg != nullptr, "swap pin outside any supergate");
  const GateId root = sg->root;

  // A swap rewires exactly its two pins' gates; the pre-move window is
  // encoded over them.
  const GateId changed[] = {move.swap_cand.pin_a.gate, move.swap_cand.pin_b.gate};
  ensure_prover();
  const std::span<const GateId> roots{&root, 1};
  session_->begin(net_, roots, changed);
  if (reference_prover_) reference_prover_->begin(net_, roots, changed);
}

EngineObjective RewireEngine::commit(const EngineMove& move) {
  const bool prove = paranoid() && move.kind != EngineMove::Kind::Resize;
  if (prove) begin_paranoid_proof(move);
  sta_.begin();
  apply_and_invalidate(scratch_, move);
  sta_.propagate();
  if (prove) {
    TraceSpan proof_span(span_tracer(), "sat", "proof_window");
    // Session conflicts attributed to THIS move; escalation conflicts are
    // added from the full-miter result where one runs.
    const std::uint64_t conflicts_before = session_->stats().conflicts;
    const auto move_conflicts = [&](std::uint64_t extra) {
      return session_->stats().conflicts - conflicts_before + extra;
    };
    // Gates the apply created do not exist in the pre-move window.
    const std::vector<GateId>& created = scratch_.swap_edit.added_inverters;
    std::string diag;
    const bool window_ok = session_->check(net_, created, &diag);
    // Reference: the session window carries at least the per-move window's
    // structure, so it must prove every move the per-move solver proves.
    std::string ref_diag;
    if (reference_prover_ &&
        reference_prover_->check(net_, created, &ref_diag) && !window_ok) {
      undo_network_edit(scratch_, move);
      sta_.rollback();
      session_->abandon();
      throw InternalError(
          "self-check: per-move window proves the move but the proof session "
          "does not (" + diag + ")");
    }
    if (!window_ok) {
      // The window proof is sound but can be incomplete (a correlation
      // between cut points the window abstraction cannot see). Escalate to
      // a whole-network miter before declaring the move buggy: slow, but
      // only reached on window failures, and it makes paranoid mode
      // complete — a move is rejected iff it truly changes some output.
      undo_network_edit(scratch_, move);
      sta_.rollback();
      // The session cache must track the rolled-back network before the
      // escalation mutates anything else.
      session_->abandon();
      log_warn() << "paranoid: window proof failed (" << diag
                 << "); escalating to a full miter";
      const Network pre = net_.clone();
      sta_.begin();
      apply_and_invalidate(scratch_, move);
      sta_.propagate();
      SatEquivalenceOptions full_opts;
      full_opts.conflict_limit = paranoid_options_.miter_conflict_limit;
      const SatEquivalenceResult full = check_equivalence_sat(pre, net_, full_opts);
      if (full.status == SatEquivalenceResult::Status::NotEquivalent) {
        undo_network_edit(scratch_, move);
        sta_.rollback();
        throw InternalError("paranoid proof failed: " + diag +
                            "; full miter CONFIRMS a functional change at output " +
                            full.failing_output);
      }
      if (full.status != SatEquivalenceResult::Status::Proved) {
        // Budget exhausted without a verdict: the move may well be correct,
        // but paranoid mode keeps only proved moves. Reject just this one
        // instead of killing the whole run.
        undo_network_edit(scratch_, move);
        sta_.rollback();
        ++paranoid_inconclusive_;
        paranoid_verdicts_.push_back(ProofVerdict::Inconclusive);
        proof_conflict_hist_.add(
            static_cast<double>(move_conflicts(full.conflicts)));
        log_warn() << "paranoid: full miter inconclusive (conflict budget); "
                      "rejecting the move conservatively";
        sample_sta_counters();
        return EngineObjective{sta_.critical_delay(), sta_.sum_po_arrival()};
      }
      // Kept on the strength of the whole-network miter alone: the ROOT
      // function may have changed unobservably (downstream don't-cares),
      // which breaks the session's cached-cone grounding — wipe it; fresh
      // encodings of the post-move structure restore the invariant.
      session_->invalidate_all();
      paranoid_verdicts_.push_back(ProofVerdict::EscalatedProved);
      proof_conflict_hist_.add(static_cast<double>(move_conflicts(full.conflicts)));
    } else {
      session_->keep();
      paranoid_verdicts_.push_back(ProofVerdict::WindowProved);
      proof_conflict_hist_.add(static_cast<double>(move_conflicts(0)));
    }
  }
  const EngineObjective obj{sta_.critical_delay(), sta_.sum_po_arrival()};
  // Record the move's dirty region for incremental partition maintenance
  // BEFORE count_commit detaches the edit records it reads.
  mark_commit_dirty(move);
  sta_.commit();
  count_commit(move);
  // Committed inserts consumed reserve ids; top it back up HERE (commit
  // sequences are identical for every worker count) so probe-time id
  // allocation stays a pure function of the commit history.
  net_.reserve_recycled_ids(kIdReserve);
  ++epoch_;
  sample_sta_counters();
  return obj;
}

void RewireEngine::commit_and_revert(const EngineMove& move) {
  RAPIDS_ASSERT_MSG(move.kind == EngineMove::Kind::Swap,
                    "commit_and_revert supports swap moves");
  sta_.begin();
  apply_swap_into(net_, placement_, lib_, move.swap_cand, scratch_.swap_edit);
  invalidate_dirty(scratch_, scratch_.swap_edit.dirty_nets);
  sta_.propagate();
  sta_.commit();

  sta_.begin();
  // The undo touches the same nets (plus nothing else): reuse the dirty
  // set recorded at apply time, then roll the netlist back and keep THAT.
  // invalidate_net is idempotent within a transaction, so duplicates in the
  // recorded set are harmless.
  scratch_.dirty_scratch.assign(scratch_.swap_edit.dirty_nets.begin(),
                                scratch_.swap_edit.dirty_nets.end());
  undo_swap(net_, placement_, scratch_.swap_edit);
  for (const GateId d : scratch_.dirty_scratch) sta_.invalidate_net(d);
  sta_.propagate();
  sta_.commit();
  sample_sta_counters();
}

}  // namespace rapids
