// Slack gating: which optimizer moves can lower a primary-output arrival.
//
// Phases A (critical delay) and B (sum of PO arrivals) accept a move only
// when some primary output's arrival falls. A PO's arrival is a max over
// paths, and the path that attains it keeps its delay unless the move
// changes a gate on it: float max and + are monotone, so with that path
// untouched the PO stays at or above its old arrival. So a move that
// touches no gate on any PO's max-arrival path yields critical >= base and
// sum_po >= base, a gain <= 0, and can never be chosen.
//
// The Sta's damping margins mark exactly those gates: a gate on a PO's max
// path has its arrival at or above its PO-seeded ceiling in some
// transition (hot; the ceiling's 1e-6 ns guard only adds near-critical
// gates). The optimizer reads the margins fresh each round and probes only
// moves that touch a hot gate; `--self-check` probes the rest to prove it.
#pragma once

#include "netlist/network.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "timing/sta.hpp"

namespace rapids {

/// Hot/cold classification over a network and its Sta, whose damping
/// margins must be fresh (Sta::margins_valid()).
class SlackGate {
 public:
  SlackGate(const Network& net, const Sta& sta) : net_(net), sta_(sta) {}

  /// g lies on (or within the ceiling guard of) some PO's max-arrival path.
  bool hot(GateId g) const {
    const RiseFall ceiling = sta_.damping_ceiling(g);
    const RiseFall arrival = sta_.arrival_rf(g);
    return ceiling.rise <= arrival.rise || ceiling.fall <= arrival.fall;
  }

  /// A swap touches its pin drivers, and an Inv driver's input too: an
  /// inverting swap reuses that input as the complement (rewire/swap's
  /// complement_driver), loading its net and moving its star centre.
  bool driver_hot(GateId d) const {
    return hot(d) || (net_.type(d) == GateType::Inv && hot(net_.fanin(d, 0)));
  }

  /// A swap touches its two pin gates and its two pin drivers.
  bool swap_hot(const SwapCandidate& c) const {
    return hot(c.pin_a.gate) || hot(c.pin_b.gate) ||
           driver_hot(net_.driver_of(c.pin_a)) || driver_hot(net_.driver_of(c.pin_b));
  }

  /// Every swap of `sg` has covered pin gates and covered-pin drivers, so a
  /// supergate with none hot has no swap worth enumerating.
  bool slot_hot(const SuperGate& sg) const {
    for (const GateId g : sg.covered) {
      if (hot(g)) return true;
    }
    for (const CoveredPin& p : sg.pins) {
      if (driver_hot(net_.driver_of(p.pin))) return true;
    }
    return false;
  }

  /// A resize changes the gate's drive and the loads of its fanin nets.
  bool resize_hot(GateId g) const {
    if (hot(g)) return true;
    for (const GateId f : net_.fanins(g)) {
      if (hot(f)) return true;
    }
    return false;
  }

 private:
  const Network& net_;
  const Sta& sta_;
};

}  // namespace rapids
