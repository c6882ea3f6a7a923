#include "opt/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "opt/slack_gate.hpp"
#include "parallel/scheduler.hpp"
#include "rewire/swap.hpp"
#include "session/session.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace rapids {

const char* to_string(OptMode mode) {
  switch (mode) {
    case OptMode::Gsg:
      return "gsg";
    case OptMode::GateSizing:
      return "GS";
    case OptMode::GsgPlusGS:
      return "gsg+GS";
  }
  return "?";
}

namespace {

SchedulerOptions scheduler_options(const OptimizerOptions& o) {
  SchedulerOptions s;
  s.threads = std::max(o.threads, 1);
  s.session = o.session;
  return s;
}

/// A ProbeGroup is the unit that gets one committed move per phase: a
/// supergate (rewiring) or a single gate (sizing). All probe/commit
/// choreography lives in the scheduler + engine; this class only decides
/// WHICH moves to try.
class Optimizer {
 public:
  Optimizer(Network& net, Placement& pl, const CellLibrary& lib, Sta& sta,
            const OptimizerOptions& options)
      : net_(net), lib_(lib), sta_(sta), engine_(net, pl, lib, sta),
        scheduler_(engine_, scheduler_options(options)), options_(options),
        gate_(net, sta) {
    // Slack gating skips moves that cannot lower any PO arrival, i.e. moves
    // whose gain is at most 0; that is exact only while no gain <= 0 wins.
    RAPIDS_ASSERT_MSG(options.min_gain >= 0.0, "min_gain must be non-negative");
    // The live engine records into the run's session (replica engines are
    // wired by the scheduler's probe contexts).
    engine_.set_session(options.session);
    // Verify-every-commit: each committed move is SAT-proved on its window
    // before it sticks, for every commit path (incl. parallel arbitration).
    engine_.set_paranoid(options.paranoid);
    // Replicas inherit self-check at their probe context's first sync.
    engine_.set_self_check(options.self_check);
  }

  OptimizerResult run() {
    Timer timer;
    OptimizerResult result;
    {
      TraceSpan setup_span(tracer(), "opt", "setup");
      if (!options_.sta_is_fresh) sta_.run_full();
      result.initial_delay = sta_.critical_delay();
      result.initial_area = network_area(net_, lib_);
      result.threads = scheduler_.threads();

      // Table 1 statistics from the initial extraction.
      const GisgPartition& part = engine_.partition();
      result.coverage = part.nontrivial_coverage(net_);
      result.max_sg_inputs = part.max_leaves();
      result.redundancies_found = part.redundancies.size();
    }
    result.seconds_setup = timer.seconds();

    double best = result.initial_delay;
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      ++result.iterations;
      TraceSpan iter_span(tracer(), "opt", "iteration");
      iter_span.set_arg("iter", iter);
      // Groups are refreshed per phase: a committed swap restructures its
      // supergate (inverter insertion, subtree exchange), which bumps that
      // slot's generation — only THOSE groups re-derive their candidate
      // pin sets. Clean supergates keep their cached swap groups across
      // phases and iterations (per-slot generation discipline).
      const int committed_a = scheduler_.run_round(
          build_groups(), ProbePolicy::MinCritical, options_.min_gain);
      const int committed_b = scheduler_.run_round(
          build_groups(), ProbePolicy::Relaxation, options_.min_gain);
      const double now = sta_.critical_delay();
      log_info() << to_string(options_.mode) << " iter " << iter << ": delay " << now
                 << " ns (" << committed_a << " + " << committed_b << " moves)";
      if (best - now < options_.min_gain && committed_a + committed_b == 0) break;
      if (now < best) best = now;
    }

    // Area recovery (sizing modes): downsize gates wherever the critical
    // delay is unaffected. This is what makes the paper's GS / gsg+GS area
    // columns go negative — off-critical gates give back their slack.
    if (options_.mode != OptMode::Gsg) {
      phase_area_recovery();
    }

    {
      const Timer finalize_timer;
      TraceSpan fin_span(tracer(), "opt", "finalize");
      if (options_.mode != OptMode::GateSizing) {
        // Only drop fanout-less inverters: their removal strictly reduces
        // driver loads. Inverter-pair collapse would re-time paths that were
        // evaluated with the pair in place and can lose committed gains.
        result.inverters_removed = static_cast<int>(remove_dangling_inverters(net_));
        // Gate deletion happens OUTSIDE the engine's commit stream, which is
        // exactly what incremental maintenance cannot model: force the
        // full-rebuild escape hatch (also wipes the proof-session cache).
        if (result.inverters_removed > 0) engine_.invalidate_partition();
      }
      sta_.run_full();
      sta_.refresh_required();
      result.final_delay = sta_.critical_delay();
      result.final_area = network_area(net_, lib_);
      result.seconds_finalize = finalize_timer.seconds();
    }
    result.seconds = timer.seconds();

    const EngineStats& stats = engine_.stats();
    result.swaps_committed = stats.swaps_committed;
    result.resizes_committed = stats.resizes_committed;
    result.inverters_added = stats.inverters_added;
    // Self-check's gating oracle probes on the live engine; those probes
    // are reference work, not the optimizer's, and are not reported.
    result.probes = stats.probes - oracle_probes_;
    if (engine_.paranoid()) {
      result.moves_proved =
          engine_.paranoid_moves_checked() - engine_.paranoid_inconclusive();
      result.paranoid_inconclusive = engine_.paranoid_inconclusive();
      result.paranoid_verdicts.reserve(engine_.paranoid_verdicts().size());
      for (const ProofVerdict v : engine_.paranoid_verdicts()) {
        result.paranoid_verdicts.push_back(static_cast<std::uint8_t>(v));
      }
      if (const auto* proofs = engine_.session_stats()) {
        result.proof_gates_encoded = proofs->gates_encoded;
        result.proof_conflicts = proofs->conflicts;
        result.proof_cache_hits = proofs->cache_hits;
        result.proof_roots_structural = proofs->roots_proved_structurally;
        result.proof_roots_by_sat = proofs->roots_proved_by_sat;
      }
      if (const sat::ProofSession* session = engine_.proof_session()) {
        result.solver_learned_kept = session->solver_learned_clauses();
        result.solver_learned_deleted = session->solver_stats().learned_deleted;
        result.solver_reduce_dbs = session->solver_stats().reduce_dbs;
      }
    }
    result.partition = engine_.partition_stats();
    result.partition.groups_reused = groups_reused_;

    const SchedulerStats& sched = scheduler_.stats();
    result.seconds_probe = sched.seconds_probe;
    result.seconds_arbitrate = sched.seconds_arbitrate;
    result.seconds_commit = sched.seconds_commit;
    result.seconds_sync = sched.sync.seconds;
    result.seconds_timing = seconds_margins_;
    result.gates_propagated = stats.gates_propagated;
    result.damp_cutoffs = stats.damp_cutoffs;
    result.damp_fallbacks = stats.damp_fallbacks;
    result.margin_refreshes = stats.margin_refreshes;
    result.replica_full_syncs = sched.sync.full_syncs;
    result.replica_sync_bytes_full = sched.sync.bytes_full;
    result.candidates_enumerated = candidates_enumerated_;
    result.sched_rounds = sched.rounds;
    result.sched_accepted = sched.accepted;
    result.sched_conflicted = sched.conflicted;
    result.sched_revalidation_rejects = sched.revalidation_rejects;
    result.gain_hist = sched.gain_hist;
    result.proof_conflict_hist = engine_.proof_conflict_hist();
    result.seconds_groups = seconds_groups_;

    // Phase accounting self-check: setup + groups + probe + arbitrate +
    // commit + finalize should cover the whole run (sync is a subset of
    // probe, and margin refreshes a subset of groups, so neither is
    // added). Whatever is left is loop overhead —
    // warn when it stops being noise, because an unattributed phase is
    // exactly what this breakdown exists to prevent. The absolute floor
    // keeps microsecond runs, where timer overhead alone is a few percent,
    // from warning.
    constexpr double kUnattributedFloorS = 1e-3;
    const double attributed = result.seconds_setup + result.seconds_groups +
                              result.seconds_probe + result.seconds_arbitrate +
                              result.seconds_commit + result.seconds_finalize;
    result.seconds_unattributed = std::max(0.0, result.seconds - attributed);
    if (result.seconds > 0.0 &&
        result.seconds_unattributed > 0.05 * result.seconds &&
        result.seconds_unattributed > kUnattributedFloorS) {
      log_warn() << "phase accounting: " << result.seconds_unattributed
                 << " s of " << result.seconds
                 << " s optimize time unattributed (> 5%) — a phase is "
                    "missing a timer";
    }
    return result;
  }

 private:
  /// Tracer the run records into: the session's when one is configured,
  /// else the thread-ambient (singleton-backed) tracer.
  Tracer& tracer() const {
    return options_.session != nullptr ? options_.session->tracer()
                                       : current_tracer();
  }

  // --- group construction ---------------------------------------------------

  /// Pop the next pooled ProbeGroup (capacity retained across rounds: a
  /// steady optimization loop rebuilds its group lists without allocating).
  ProbeGroup& next_group() {
    if (groups_used_ < groups_.size()) {
      groups_[groups_used_].moves.clear();
    } else {
      groups_.emplace_back();
    }
    return groups_[groups_used_++];
  }

  /// Drop the last pooled group (it stayed empty).
  void discard_group() { --groups_used_; }

  /// Refresh the live engine's damping margins (a no-op while still
  /// valid). They serve two readers: slack gating below, and the damped
  /// probes of the threads-1 path and of arbitration.
  void refresh_margins() {
    const Timer margin_timer;
    engine_.refresh_timing_margins();
    seconds_margins_ += margin_timer.seconds();
  }

  // --- slack gating (opt/slack_gate.hpp) ----------------------------------
  //
  // Cold supergates, swaps and resize groups are dropped before probing.
  // Dropping keeps the relative order of the rest, so the arbiter's
  // (gain, group) order and every commit are those of probing everything.

  /// Self-check reference for one gated move: probed live, it must not
  /// lower either objective below the current (round-baseline) state.
  void check_gated_move(const EngineMove& move, GateId at) {
    ++oracle_probes_;
    const EngineObjective obj = engine_.probe(move);
    if (obj.critical >= sta_.critical_delay() && obj.sum_po >= sta_.sum_po_arrival()) {
      return;
    }
    throw InternalError("self-check: slack gating skipped a move at " + net_.name(at) +
                        " that lowers the critical delay or the PO arrival sum");
  }

  /// Append the hot moves of `from` to `to`, in order.
  void keep_hot_swaps(const std::vector<EngineMove>& from, std::vector<EngineMove>& to) {
    for (const EngineMove& m : from) {
      if (gate_.swap_hot(m.swap_cand)) {
        to.push_back(m);
      } else if (options_.self_check) {
        check_gated_move(m, m.swap_cand.pin_a.gate);
      }
    }
  }

  std::span<const ProbeGroup> build_groups() {
    const Timer groups_timer;
    TraceSpan groups_span(tracer(), "opt", "build_groups");
    refresh_margins();
    groups_used_ = 0;
    const bool want_swaps = options_.mode != OptMode::GateSizing;
    const bool want_resizes = options_.mode != OptMode::Gsg;

    // Reused id_bound-sized scratch (satellite: no per-phase reallocation).
    covered_nontrivial_.assign(net_.id_bound(), 0);
    if (want_swaps) {
      // All optimizer mutations go through engine commits, which dirty
      // exactly the supergates they restructure; partition() splices those
      // regions in and leaves every other slot's generation untouched.
      const GisgPartition& part = engine_.partition();
      if (swap_cache_.size() < part.sgs.size()) swap_cache_.resize(part.sgs.size());
      // Canonical group order: by supergate ROOT id, not slot index. Slot
      // numbering is maintenance-history-dependent (recycled slots), and
      // the arbiter breaks exact gain ties by group index — root order
      // makes the committed move stream a function of partition CONTENT,
      // so incremental and full-rebuild maintenance produce byte-identical
      // netlists.
      slot_order_.clear();
      for (std::size_t s = 0; s < part.sgs.size(); ++s) {
        if (!part.sgs[s].is_trivial()) slot_order_.push_back(s);
      }
      std::sort(slot_order_.begin(), slot_order_.end(),
                [&part](std::size_t a, std::size_t b) {
                  return part.sgs[a].root < part.sgs[b].root;
                });
      for (const std::size_t s : slot_order_) {
        const SuperGate& sg = part.sgs[s];
        for (const GateId g : sg.covered) covered_nontrivial_[g] = 1;
        if (!gate_.slot_hot(sg)) {
          // Neither enumerated nor cached: its cache entry, if any, is
          // judged by the usual validity rule once the slot turns hot.
          if (options_.self_check) {
            swap_moves(part, s, recheck_moves_);
            for (const EngineMove& m : recheck_moves_) check_gated_move(m, sg.root);
          }
          continue;
        }
        SwapGroupCache& entry = swap_cache_[s];
        // Clean slot: the supergate — and therefore its feasible swap set —
        // is untouched since the moves were enumerated, so the cached list
        // equals what re-enumeration would produce (self-check
        // re-enumerates to prove it).
        const bool cache_ok = entry.generation != 0 && entry.generation == sg.generation;
        if (cache_ok) {
          if (options_.self_check) check_cached_moves(part, s, entry);
        } else {
          const std::size_t candidates = swap_moves(part, s, entry.moves);
          candidates_enumerated_ += candidates;
          // A list truncated at the cap kept the largest arrival gaps of
          // this round's timing, so it is never cached: a hot truncated
          // slot is enumerated again.
          const bool truncated =
              candidates > static_cast<std::size_t>(options_.max_swaps_per_sg);
          entry.generation = truncated ? 0 : sg.generation;
        }
        ProbeGroup& group = next_group();
        keep_hot_swaps(entry.moves, group.moves);
        if (group.moves.empty()) {
          discard_group();
        } else if (cache_ok) {
          ++groups_reused_;
        }
      }
    }
    if (want_resizes) {
      for (const GateId g : net_.gates()) {
        if (!is_logic(net_.type(g)) || net_.cell(g) < 0) continue;
        // gsg+GS sizes only gates NOT covered by a non-trivial supergate.
        if (options_.mode == OptMode::GsgPlusGS && covered_nontrivial_[g]) continue;
        if (!gate_.resize_hot(g)) {
          if (options_.self_check) {
            for (const int cell : resize_candidates(net_, lib_, g)) {
              check_gated_move(EngineMove::resize(g, cell), g);
            }
          }
          continue;
        }
        ProbeGroup& group = next_group();
        for (const int cell : resize_candidates(net_, lib_, g)) {
          group.moves.push_back(EngineMove::resize(g, cell));
        }
        if (group.moves.empty()) discard_group();
      }
    }
    groups_span.set_arg("groups", static_cast<std::int64_t>(groups_used_));
    seconds_groups_ += groups_timer.seconds();
    return {groups_.data(), groups_used_};
  }

  /// Per-supergate-slot cache of enumerated swap moves, valid while the
  /// slot's generation is unchanged. Generation 0 marks an entry that holds
  /// no servable list: never filled, or truncated at the cap.
  struct SwapGroupCache {
    std::uint64_t generation = 0;
    std::vector<EngineMove> moves;
  };

  /// Enumerate slot `s`'s swap moves into `moves`, keeping only the
  /// `max_swaps_per_sg` largest arrival gaps past the cap. Reads state
  /// only; returns the candidate count before pruning.
  std::size_t swap_moves(const GisgPartition& part, std::size_t s,
                         std::vector<EngineMove>& moves) const {
    std::vector<SwapCandidate> cands =
        enumerate_swaps(part, static_cast<int>(s), net_, options_.leaves_only_swaps);
    const std::size_t candidates = cands.size();
    if (static_cast<int>(candidates) > options_.max_swaps_per_sg) {
      // Keep the pairs with the largest arrival mismatch between the two
      // drivers: those are where rewiring can shift the critical path.
      std::sort(cands.begin(), cands.end(),
                [this](const SwapCandidate& a, const SwapCandidate& b) {
                  return arrival_gap(a) > arrival_gap(b);
                });
      cands.resize(static_cast<std::size_t>(options_.max_swaps_per_sg));
    }
    moves.clear();
    moves.reserve(cands.size());
    for (const SwapCandidate& c : cands) moves.push_back(EngineMove::swap(c));
    return candidates;
  }

  /// Self-check reference for a cache hit: re-enumerate the slot and
  /// require the served list to equal the fresh one, move for move.
  void check_cached_moves(const GisgPartition& part, std::size_t s,
                          const SwapGroupCache& entry) {
    swap_moves(part, s, recheck_moves_);
    const bool same = std::equal(
        recheck_moves_.begin(), recheck_moves_.end(), entry.moves.begin(),
        entry.moves.end(), [](const EngineMove& a, const EngineMove& b) {
          return a.swap_cand == b.swap_cand;
        });
    if (!same) {
      throw InternalError("self-check: swap cache served a stale move list for "
                          "the supergate rooted at " +
                          net_.name(part.sgs[s].root));
    }
  }

  double arrival_gap(const SwapCandidate& c) const {
    const double a = sta_.arrival(net_.driver_of(c.pin_a));
    const double b = sta_.arrival(net_.driver_of(c.pin_b));
    return std::abs(a - b);
  }

  // --- phases ---------------------------------------------------------------

  /// Area recovery: one FirstFit round per the fixed budget — each gate's
  /// group lists its strictly smaller cells, area-ascending; the smallest
  /// that keeps the critical delay within budget wins, and the arbiter
  /// re-validates each against the live state in gate order.
  void phase_area_recovery() {
    TraceSpan phase_span(tracer(), "opt", "area_recovery");
    const Timer groups_timer;
    // FirstFit spends slack rather than seeking a PO decrease, so it is
    // not gated; the margins only serve its damped probes.
    refresh_margins();
    groups_used_ = 0;
    covered_nontrivial_.assign(net_.id_bound(), 0);
    if (options_.mode == OptMode::GsgPlusGS) {
      const GisgPartition& part = engine_.partition();
      for (const SuperGate& sg : part.sgs) {
        if (sg.is_trivial()) continue;
        for (const GateId g : sg.covered) covered_nontrivial_[g] = 1;
      }
    }
    const double budget = sta_.critical_delay() + options_.min_gain;
    for (const GateId g : net_.gates()) {
      if (!is_logic(net_.type(g)) || net_.cell(g) < 0) continue;
      if (options_.mode == OptMode::GsgPlusGS && g < covered_nontrivial_.size() &&
          covered_nontrivial_[g]) {
        continue;
      }
      const Cell& current = lib_.cell(net_.cell(g));
      std::vector<int> cands = resize_candidates(net_, lib_, g);
      std::sort(cands.begin(), cands.end(), [this](int a, int b) {
        return lib_.cell(a).area < lib_.cell(b).area;
      });
      ProbeGroup& group = next_group();
      for (const int cand : cands) {
        if (lib_.cell(cand).area >= current.area) break;
        group.moves.push_back(EngineMove::resize(g, cand));
      }
      if (group.moves.empty()) discard_group();
    }
    seconds_groups_ += groups_timer.seconds();
    scheduler_.run_round({groups_.data(), groups_used_}, ProbePolicy::FirstFit,
                         budget);
  }

  Network& net_;
  const CellLibrary& lib_;
  Sta& sta_;
  RewireEngine engine_;
  ParallelRewireScheduler scheduler_;
  OptimizerOptions options_;
  SlackGate gate_;

  std::vector<SwapGroupCache> swap_cache_;
  double seconds_groups_ = 0.0;
  double seconds_margins_ = 0.0;    // live margin refreshes (inside groups)
  std::uint64_t oracle_probes_ = 0;  // self-check's gating probes, not reported
  std::uint64_t groups_reused_ = 0;
  std::uint64_t candidates_enumerated_ = 0;
  std::vector<std::size_t> slot_order_;  // root-sorted live slots (reused)
  std::vector<EngineMove> recheck_moves_;  // self-check re-enumeration scratch

  // Held-capacity pools: the per-phase group lists and the id_bound-sized
  // coverage scratch reuse their storage across rounds and phases.
  std::vector<ProbeGroup> groups_;
  std::size_t groups_used_ = 0;
  std::vector<std::uint8_t> covered_nontrivial_;
};

}  // namespace

OptimizerResult optimize(Network& net, Placement& placement, const CellLibrary& lib,
                         Sta& sta, const OptimizerOptions& options) {
  Optimizer optimizer(net, placement, lib, sta, options);
  return optimizer.run();
}

}  // namespace rapids
