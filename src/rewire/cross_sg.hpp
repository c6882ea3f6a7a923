// Cross-supergate group swapping (Theorem 2, Fig. 3).
//
// When the outputs of two AND/OR-type supergates SG1, SG2 are symmetric
// (their sink pins are swappable inside an enclosing supergate) and the
// supergates have the same number of leaf fanins, the two *fanin groups*
// can be exchanged under DeMorgan transformation: every covered gate's base
// type flips (AND<->OR, NAND<->NOR), which complements all leaf literal
// polarities and the output. Residual polarity mismatches are absorbed by
// the enclosing swap polarity (ES) or by inserting inverters at the leaf
// pins.
//
// Any AND/OR supergate computes  out = c XOR AND_i (x_i == v_i)  where v_i
// is the imp_value of leaf i and c a constant; the implementation reasons
// entirely in this canonical form. The paper excludes cross-supergate swaps
// from its optimizer formulation, and so does the optimizer here: this is a
// standalone, verified transform exercised by bench/fig3_cross_supergate
// and the test suite.
#pragma once

#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "sym/gisg.hpp"

namespace rapids {

struct CrossSgCandidate {
  int enclosing_sg = -1;  // supergate whose pins make the outputs symmetric
  Pin pin_a, pin_b;       // enclosing leaf pins fed by the two roots
  int sg_a = -1;          // supergate rooted at driver_of(pin_a)
  int sg_b = -1;
  bool inverting = false; // enclosing swap polarity required (ES)
};

/// Find all cross-supergate swap opportunities in the partition: pairs of
/// swappable enclosing leaf pins whose drivers are single-fanout roots of
/// AND/OR supergates with equal leaf counts.
std::vector<CrossSgCandidate> find_cross_sg_candidates(const GisgPartition& part,
                                                       const Network& net);

/// What one applied group swap changed.
struct CrossSgEdit {
  bool applied = false;
  int inverters_added = 0;
  int gates_retyped = 0;
};

/// Execute the group swap. Leaf drivers are exchanged between the two
/// supergates (paired by literal polarity), gate types are DeMorgan-flipped
/// when required, and cell bindings follow the retyping. Placed cells do
/// not move. `part` must be the current extraction of `net`.
CrossSgEdit apply_cross_sg_swap(Network& net, Placement& placement, const CellLibrary& lib,
                                const GisgPartition& part, const CrossSgCandidate& cand);

}  // namespace rapids
