// Applying (and undoing) pin swaps — the elementary rewiring move.
//
// Non-inverting swaps exchange the two pins' drivers. Inverting swaps
// route each driver through an inverter (Definition 3); when a driver is
// itself an inverter, its input signal is reused instead of inserting a new
// gate. Placed cells never move: a freshly inserted inverter is placed on
// top of its sink cell (zero-footprint from the flow's perspective, as in
// the paper where "only inverters can possibly be added or deleted").
//
// Every apply returns an edit record with exact undo information, so the
// optimizer can probe thousands of candidate swaps transactionally.
//
// CONTRACT: a SwapCandidate is only valid for the network state its
// GisgPartition was extracted from. After COMMITTING a swap, other
// candidates from the same supergate are stale (the internal tree was
// restructured; applying one may close a combinational loop). Probe-and-
// undo sequences are unrestricted; commit at most one swap per supergate
// per extraction, as the optimizer's phases do.
#pragma once

#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "place/placement.hpp"
#include "sym/symmetry.hpp"

namespace rapids {

struct SwapEdit {
  Pin pin_a, pin_b;
  GateId old_driver_a = kNullGate;
  GateId old_driver_b = kNullGate;
  /// Inverters created by this edit (empty for non-inverting swaps or when
  /// existing inverter outputs could be reused).
  std::vector<GateId> added_inverters;
  /// Drivers whose nets changed sink sets (for STA invalidation): the two
  /// old drivers, any reused inverter inputs, and added inverters.
  std::vector<GateId> dirty_nets;
  bool applied = false;
};

/// Apply `swap` to the network. `placement` receives locations for any
/// inserted inverters; `lib` provides their cell binding (smallest INV).
SwapEdit apply_swap(Network& net, Placement& placement, const CellLibrary& lib,
                    const SwapCandidate& swap);

/// As above, but fills a caller-owned edit record, reusing its vector
/// capacity. The RewireEngine probes through this form so a steady
/// probe/undo loop performs no allocation per move.
void apply_swap_into(Network& net, Placement& placement, const CellLibrary& lib,
                     const SwapCandidate& swap, SwapEdit& edit);

/// Exact rollback of apply_swap (drivers restored, inserted gates deleted).
void undo_swap(Network& net, Placement& placement, SwapEdit& edit);

/// Delete inverters with no remaining fanouts (left behind by inverting
/// swaps that reused an existing inverter's input). Strictly reduces the
/// load on their drivers, so timing can only improve. Returns #deleted.
std::size_t remove_dangling_inverters(Network& net);

}  // namespace rapids
