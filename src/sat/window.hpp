// Windowed SAT proofs for individual rewiring moves (--paranoid tier).
//
// A symmetry move is supposed to preserve the function at an observation
// root that dominates everything it touches: a pin swap at its supergate
// root, a cross-supergate exchange at the enclosing supergate root. Proving
// the move therefore needs no global miter — only the *invalidated cone*:
// the gates lying between the rewired pins and the root. Everything outside
// that cone keeps its function (moves rewire fanin edges of the changed
// gates only; fanout edges of unchanged gates never change reachability
// from the changed set), so boundary gates become free cut variables shared
// between the pre-move and post-move encodings, and the miter of the two
// root functions over the cut is UNSAT iff the move is function-preserving
// for EVERY cut assignment — exactly the symmetry property the rewiring
// theory promises.
//
// Protocol: begin() snapshots and encodes the pre-move window; the caller
// applies the move; check() encodes the post-move window into the same
// solver and discharges the per-root miters. One throwaway solver per
// move — the self-check reference for the persistent incremental variant
// (sat/proof_session.hpp), which reuses encoded cones and learned clauses
// across all the moves of an optimization run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/network.hpp"
#include "sat/solver.hpp"
#include "sat/tseitin.hpp"

namespace rapids::sat {

struct WindowCheckerStats {
  std::uint64_t moves_checked = 0;
  std::uint64_t roots_proved_structurally = 0;
  std::uint64_t roots_proved_by_sat = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t window_gates = 0;  // cumulative, pre+post
};

class WindowChecker {
 public:
  /// Conflict budget per root miter (< 0: unlimited). Move windows are tiny
  /// (one supergate), so the default is generous.
  explicit WindowChecker(std::int64_t conflict_limit = 1'000'000)
      : conflict_limit_(conflict_limit) {}

  /// Phase 1, called BEFORE the move is applied. `roots` are the
  /// observation points whose functions must be preserved; `changed` are
  /// the gates whose fanins/type the move will rewire (gates the move will
  /// CREATE are reported to check() instead). Encodes each root's function
  /// over the window cut.
  void begin(const Network& net, std::span<const GateId> roots,
             std::span<const GateId> changed);

  /// Phase 2, called AFTER the move is applied. `created` lists gates the
  /// move inserted (inverters). Returns true iff every root provably kept
  /// its function; on failure `diagnostic` (if non-null) describes the
  /// first failing root, including budget exhaustion.
  bool check(const Network& net, std::span<const GateId> created,
             std::string* diagnostic = nullptr);

  const WindowCheckerStats& stats() const { return stats_; }

 private:
  /// Literal source for window boundary gates: every gate outside the
  /// affected set reads through one shared cut variable per gate id, with
  /// INV/BUF chains chased to their source first (see the .cpp comment).
  bool leaf_lit(const Network& net, GateId g, Lit& l);

  std::int64_t conflict_limit_;
  std::unique_ptr<Solver> solver_;
  std::unique_ptr<CnfEncoder> enc_;
  std::unordered_set<GateId> affected_;        // fanout cone of changed, pre-move
  std::unordered_map<GateId, Lit> cut_vars_;   // shared pre/post boundary vars
  std::unordered_map<GateId, Lit> lits_pre_, lits_post_;
  std::vector<GateId> roots_;
  std::vector<Lit> pre_lits_;
  bool escaped_ = false;  // the affected cone reached a PO bypassing roots
  GateId escape_gate_ = kNullGate;
  bool checked_ = false;  // guards against double-check on one window
  std::uint64_t conflicts_seen_ = 0;  // per-window delta base for stats_.conflicts
  WindowCheckerStats stats_;
};

}  // namespace rapids::sat
