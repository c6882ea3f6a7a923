#include "rewire/swap.hpp"

#include "rewire/inverter.hpp"
#include "util/assert.hpp"

namespace rapids {

namespace {

/// Produce a driver for the complement of `signal`, preferring reuse:
/// if `signal` is an inverter, its own input is the complement. Otherwise
/// insert a fresh INV placed on the sink's cell site.
GateId complement_driver(Network& net, Placement& placement, const CellLibrary& lib,
                         GateId signal, const Pin& sink, SwapEdit& edit) {
  if (net.type(signal) == GateType::Inv) {
    const GateId w = net.fanin(signal, 0);
    edit.dirty_nets.push_back(w);
    return w;
  }
  const GateId inv = insert_inverter_at(net, placement, lib, signal, sink);
  edit.added_inverters.push_back(inv);
  edit.dirty_nets.push_back(inv);
  return inv;
}

}  // namespace

SwapEdit apply_swap(Network& net, Placement& placement, const CellLibrary& lib,
                    const SwapCandidate& swap) {
  SwapEdit edit;
  apply_swap_into(net, placement, lib, swap, edit);
  return edit;
}

void apply_swap_into(Network& net, Placement& placement, const CellLibrary& lib,
                     const SwapCandidate& swap, SwapEdit& edit) {
  RAPIDS_ASSERT_MSG(!edit.applied, "edit record still holds an applied swap");
  edit.added_inverters.clear();
  edit.dirty_nets.clear();
  edit.pin_a = swap.pin_a;
  edit.pin_b = swap.pin_b;
  edit.old_driver_a = net.driver_of(swap.pin_a);
  edit.old_driver_b = net.driver_of(swap.pin_b);
  edit.dirty_nets.push_back(edit.old_driver_a);
  edit.dirty_nets.push_back(edit.old_driver_b);

  if (swap.polarity == SwapPolarity::NonInverting) {
    net.set_fanin(swap.pin_a, edit.old_driver_b);
    net.set_fanin(swap.pin_b, edit.old_driver_a);
  } else {
    const GateId inv_b = complement_driver(net, placement, lib, edit.old_driver_b,
                                           swap.pin_a, edit);
    const GateId inv_a = complement_driver(net, placement, lib, edit.old_driver_a,
                                           swap.pin_b, edit);
    net.set_fanin(swap.pin_a, inv_b);
    net.set_fanin(swap.pin_b, inv_a);
  }
  edit.applied = true;
}

void undo_swap(Network& net, Placement& placement, SwapEdit& edit) {
  RAPIDS_ASSERT(edit.applied);
  net.set_fanin(edit.pin_a, edit.old_driver_a);
  net.set_fanin(edit.pin_b, edit.old_driver_b);
  // Delete in reverse creation order: with id recycling, the free list is a
  // stack, so reversed deletion pushes ids back exactly as apply popped
  // them. A probe then restores the allocator state bit-for-bit, which the
  // parallel scheduler relies on (the ids handed to a probe's inverters
  // must not depend on which probes ran before it on that worker).
  for (auto it = edit.added_inverters.rbegin(); it != edit.added_inverters.rend();
       ++it) {
    const GateId inv = *it;
    RAPIDS_ASSERT_MSG(net.fanout_count(inv) == 0,
                      "inserted inverter acquired sinks before undo");
    placement.unset(inv);
    net.delete_gate(inv);
  }
  edit.added_inverters.clear();
  edit.applied = false;
}

std::size_t remove_dangling_inverters(Network& net) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GateId g : net.gates()) {
      if (net.type(g) == GateType::Inv && net.fanout_count(g) == 0) {
        net.delete_gate(g);
        ++removed;
        changed = true;
      }
    }
  }
  return removed;
}

}  // namespace rapids
