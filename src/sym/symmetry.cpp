#include "sym/symmetry.hpp"

#include <unordered_map>

#include "util/assert.hpp"

namespace rapids {

namespace {

/// Index of gate g in sg.covered, or -1.
int covered_index(const SuperGate& sg, GateId g) {
  for (std::size_t i = 0; i < sg.covered.size(); ++i) {
    if (sg.covered[i] == g) return static_cast<int>(i);
  }
  return -1;
}

/// classify_swap for two entries of sg.pins, which enumeration already
/// holds, so no pin lookup is needed.
bool classify_covered(const SuperGate& sg, const Network& net, const CoveredPin& a,
                      const CoveredPin& b, SwapPolarity& polarity) {
  if (a.pin == b.pin) return false;
  if (path_contains(sg, net, a.pin, b.pin)) return false;
  switch (sg.type) {
    case SgType::Xor:
      polarity = SwapPolarity::NonInverting;  // Lemma 8: both work
      return true;
    case SgType::AndOr:
      polarity = (a.imp_value == b.imp_value) ? SwapPolarity::NonInverting
                                              : SwapPolarity::Inverting;
      return true;
    case SgType::Trivial:
      return false;
  }
  return false;
}

}  // namespace

bool path_contains(const SuperGate& sg, const Network& net, const Pin& a, const Pin& b) {
  (void)net;
  // Walk from a's gate to the root via parent pins; if we pass through b,
  // then b is on a's root path. And symmetrically.
  auto on_path = [&sg](const Pin& from, const Pin& target) {
    GateId g = from.gate;
    for (;;) {
      const int idx = covered_index(sg, g);
      RAPIDS_ASSERT_MSG(idx >= 0, "pin gate not covered by supergate");
      if (g == sg.root) return false;
      const Pin up = sg.parent_pin[static_cast<std::size_t>(idx)];
      if (up == target) return true;
      g = up.gate;
    }
  };
  return on_path(a, b) || on_path(b, a);
}

bool classify_swap(const SuperGate& sg, const Network& net, const Pin& a, const Pin& b,
                   SwapPolarity& polarity) {
  if (sg.type == SgType::Trivial) return false;
  const CoveredPin* cpa = nullptr;
  const CoveredPin* cpb = nullptr;
  for (const CoveredPin& cp : sg.pins) {
    if (cp.pin == a) cpa = &cp;
    if (cp.pin == b) cpb = &cp;
  }
  if (cpa == nullptr || cpb == nullptr) return false;
  return classify_covered(sg, net, *cpa, *cpb, polarity);
}

std::vector<SwapCandidate> enumerate_swaps(const GisgPartition& part, int sg_index,
                                           const Network& net, bool leaves_only) {
  const SuperGate& sg = part.sgs[static_cast<std::size_t>(sg_index)];
  std::vector<SwapCandidate> out;
  if (sg.type == SgType::Trivial) return out;
  const auto& pins = sg.pins;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (leaves_only && !pins[i].leaf) continue;
    for (std::size_t j = i + 1; j < pins.size(); ++j) {
      if (leaves_only && !pins[j].leaf) continue;
      SwapPolarity pol;
      if (!classify_covered(sg, net, pins[i], pins[j], pol)) continue;
      SwapCandidate c;
      c.sg_index = sg_index;
      c.pin_a = pins[i].pin;
      c.pin_b = pins[j].pin;
      c.polarity = pol;
      c.leaf_swap = pins[i].leaf && pins[j].leaf;
      out.push_back(c);
    }
  }
  return out;
}

std::vector<SwapCandidate> enumerate_all_swaps(const GisgPartition& part,
                                               const Network& net, bool leaves_only) {
  std::vector<SwapCandidate> out;
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    if (part.sgs[s].is_trivial()) continue;
    const auto sw = enumerate_swaps(part, static_cast<int>(s), net, leaves_only);
    out.insert(out.end(), sw.begin(), sw.end());
  }
  return out;
}

std::vector<std::vector<Pin>> leaf_symmetry_classes(const SuperGate& sg) {
  std::vector<std::vector<Pin>> classes;
  if (sg.type == SgType::Xor) {
    std::vector<Pin> all;
    for (const CoveredPin& cp : sg.pins) {
      if (cp.leaf) all.push_back(cp.pin);
    }
    if (!all.empty()) classes.push_back(std::move(all));
    return classes;
  }
  if (sg.type != SgType::AndOr) return classes;
  std::vector<Pin> zero, one;
  for (const CoveredPin& cp : sg.pins) {
    if (!cp.leaf) continue;
    (cp.imp_value == 0 ? zero : one).push_back(cp.pin);
  }
  if (!zero.empty()) classes.push_back(std::move(zero));
  if (!one.empty()) classes.push_back(std::move(one));
  return classes;
}

}  // namespace rapids
