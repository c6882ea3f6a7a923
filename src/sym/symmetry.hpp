// Swappable-pin identification (paper §4).
//
// Definition 3: pins pi, pj (with drivers ki, kj) are non-inverting
// swappable if exchanging ki and kj preserves the network function, and
// inverting swappable if exchanging them through inverters does. These
// correspond exactly to NES and ES symmetries.
//
// Lemma 6: two in-pins covered by the same GISG whose root paths do not
// properly contain each other are swappable.
// Lemma 7 (and-or supergates): equal imp_value  -> non-inverting swappable;
//                              unequal imp_value -> inverting swappable.
// Lemma 8 (xor supergates): both inverting and non-inverting swappable.
#pragma once

#include <vector>

#include "sym/gisg.hpp"

namespace rapids {

enum class SwapPolarity : std::uint8_t {
  NonInverting,  // NES: plain driver exchange
  Inverting,     // ES: driver exchange through inverters
};

/// A feasible swap between two covered pins of one supergate.
struct SwapCandidate {
  int sg_index = -1;
  Pin pin_a, pin_b;
  SwapPolarity polarity = SwapPolarity::NonInverting;
  /// True when both pins are supergate leaves (pure wire exchange);
  /// internal-pin swaps exchange whole subtrees (logic-level reduction).
  bool leaf_swap = true;

  friend bool operator==(const SwapCandidate&, const SwapCandidate&) = default;
};

/// True iff one pin's root path properly contains the other's: `a` lies on
/// the path of `b` or vice versa. Such swaps would create a combinational
/// loop and are excluded (Lemma 6's constraint).
bool path_contains(const SuperGate& sg, const Network& net, const Pin& a, const Pin& b);

/// Classify the swap between two covered pins of `sg`. Returns false if the
/// pair is not swappable (same pin, containment, or — for and-or supergates
/// in a mapped flow — nothing else; covered pairs are otherwise always
/// swappable with some polarity). On success fills `polarity` with the
/// applicable polarity per Lemma 7/8; for XOR supergates non-inverting is
/// reported (Lemma 8 allows both).
bool classify_swap(const SuperGate& sg, const Network& net, const Pin& a, const Pin& b,
                   SwapPolarity& polarity);

/// Enumerate all swappable pin pairs of one supergate.
/// `leaves_only` restricts to leaf-leaf pairs (wirelength-style rewiring);
/// otherwise internal-pin pairs (subtree exchanges) are included.
std::vector<SwapCandidate> enumerate_swaps(const GisgPartition& part, int sg_index,
                                           const Network& net, bool leaves_only = false);

/// Enumerate swaps across the whole partition (concatenation over
/// non-trivial supergates).
std::vector<SwapCandidate> enumerate_all_swaps(const GisgPartition& part,
                                               const Network& net,
                                               bool leaves_only = false);

/// Symmetry classes: partition a supergate's LEAF pins into groups that are
/// mutually swappable without inverters (equal imp_value, or any leaf of an
/// XOR supergate). Pins in different groups of the same and-or supergate
/// are inverting swappable. Used for reporting and tests.
std::vector<std::vector<Pin>> leaf_symmetry_classes(const SuperGate& sg);

}  // namespace rapids
