#include "rewire/cross_sg.hpp"

#include <cstdlib>

#include "rewire/inverter.hpp"
#include "sym/atpg_check.hpp"
#include "sym/symmetry.hpp"
#include "util/assert.hpp"

namespace rapids {

namespace {

/// Is `g` the root of a non-trivial AND/OR supergate with a single fanout?
const SuperGate* and_or_root(const GisgPartition& part, const Network& net, GateId g) {
  if (!is_logic(net.type(g)) || net.fanout_count(g) != 1) return nullptr;
  const SuperGate* sg = part.sg_containing(g);
  if (sg == nullptr || sg->root != g) return nullptr;
  if (sg->type != SgType::AndOr) return nullptr;
  return sg;
}

/// Constant c of the canonical form out = c XOR AND_i(x_i == v_i):
/// evaluate the supergate at x == v (all literals true).
int canonical_constant(const Network& net, const SuperGate& sg) {
  SgFunction fn(net, sg);
  std::vector<std::uint64_t> words;
  words.reserve(fn.num_leaves());
  std::size_t li = 0;
  for (const CoveredPin& cp : sg.pins) {
    if (!cp.leaf) continue;
    RAPIDS_ASSERT(fn.leaves()[li] == cp.pin);
    words.push_back(cp.imp_value == 1 ? ~0ULL : 0ULL);
    ++li;
  }
  const int out_at_true = (fn.eval(words) & 1ULL) ? 1 : 0;
  return out_at_true ^ 1;
}

struct LeafInfo {
  Pin pin;
  int v = 0;  // imp_value
};

std::vector<LeafInfo> leaves_of(const SuperGate& sg) {
  std::vector<LeafInfo> out;
  for (const CoveredPin& cp : sg.pins) {
    if (cp.leaf) out.push_back(LeafInfo{cp.pin, cp.imp_value});
  }
  return out;
}

int count_ones(const std::vector<LeafInfo>& leaves, int flip) {
  int n = 0;
  for (const LeafInfo& l : leaves) n += l.v ^ flip;
  return n;
}

GateType flipped_type(GateType t) {
  switch (t) {
    case GateType::And:
      return GateType::Or;
    case GateType::Or:
      return GateType::And;
    case GateType::Nand:
      return GateType::Nor;
    case GateType::Nor:
      return GateType::Nand;
    default:
      return t;  // INV/BUF inside the supergate stay as they are
  }
}

/// Reconnect the leaf pins of `dst` (literal polarities dst_v, possibly
/// flipped) to the driver group `src_drivers` with literal polarities
/// src_v. Pairs equal polarities first; mismatches go through inverters.
int reconnect_group(Network& net, Placement& placement, const CellLibrary& lib,
                    const std::vector<LeafInfo>& dst, int dst_flip,
                    const std::vector<std::pair<GateId, int>>& src) {
  RAPIDS_ASSERT(dst.size() == src.size());
  std::vector<std::size_t> src_by_v[2];
  for (std::size_t j = 0; j < src.size(); ++j) {
    src_by_v[src[j].second & 1].push_back(j);
  }
  int inverters = 0;
  for (const LeafInfo& leaf : dst) {
    const int want = leaf.v ^ dst_flip;
    std::size_t j;
    bool invert = false;
    if (!src_by_v[want].empty()) {
      j = src_by_v[want].back();
      src_by_v[want].pop_back();
    } else {
      RAPIDS_ASSERT(!src_by_v[1 - want].empty());
      j = src_by_v[1 - want].back();
      src_by_v[1 - want].pop_back();
      invert = true;
    }
    GateId driver = src[j].first;
    if (invert) {
      driver = insert_inverter_at(net, placement, lib, driver, leaf.pin);
      ++inverters;
    }
    net.set_fanin(leaf.pin, driver);
  }
  return inverters;
}

}  // namespace

std::vector<CrossSgCandidate> find_cross_sg_candidates(const GisgPartition& part,
                                                       const Network& net) {
  std::vector<CrossSgCandidate> out;
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    const SuperGate& sg = part.sgs[s];
    if (sg.type == SgType::Trivial) continue;
    const std::vector<LeafInfo> leaves = leaves_of(sg);
    // Note: a single wide gate is a "trivial" supergate for the coverage
    // statistic, yet a perfectly valid group for Theorem 2 (Fig. 3's SG1 is
    // one AND gate) — so only the supergate TYPE is filtered here.
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const SuperGate* sa = and_or_root(part, net, net.driver_of(leaves[i].pin));
      if (sa == nullptr) continue;
      for (std::size_t j = i + 1; j < leaves.size(); ++j) {
        const SuperGate* sb = and_or_root(part, net, net.driver_of(leaves[j].pin));
        if (sb == nullptr || sa == sb) continue;
        if (sa->num_leaves != sb->num_leaves) continue;
        SwapPolarity pol;
        if (!classify_swap(sg, net, leaves[i].pin, leaves[j].pin, pol)) continue;
        CrossSgCandidate c;
        c.enclosing_sg = static_cast<int>(s);
        c.pin_a = leaves[i].pin;
        c.pin_b = leaves[j].pin;
        c.sg_a = part.sg_of_gate[sa->root];
        c.sg_b = part.sg_of_gate[sb->root];
        c.inverting = (sg.type == SgType::AndOr && pol == SwapPolarity::Inverting);
        out.push_back(c);
      }
    }
  }
  return out;
}

CrossSgEdit apply_cross_sg_swap(Network& net, Placement& placement, const CellLibrary& lib,
                                const GisgPartition& part, const CrossSgCandidate& cand) {
  CrossSgEdit edit;
  const SuperGate& enclosing = part.sgs[static_cast<std::size_t>(cand.enclosing_sg)];
  const SuperGate& sga = part.sgs[static_cast<std::size_t>(cand.sg_a)];
  const SuperGate& sgb = part.sgs[static_cast<std::size_t>(cand.sg_b)];
  RAPIDS_ASSERT(sga.type == SgType::AndOr && sgb.type == SgType::AndOr);

  const std::vector<LeafInfo> la = leaves_of(sga);
  const std::vector<LeafInfo> lb = leaves_of(sgb);
  RAPIDS_ASSERT(la.size() == lb.size());
  const int ca = canonical_constant(net, sga);
  const int cb = canonical_constant(net, sgb);

  // Delivered polarity e at the enclosing pins; XOR enclosings accept both
  // (Lemma 8), AND/OR enclosings fix it by the swap polarity (Lemma 7).
  std::vector<int> e_options;
  if (enclosing.type == SgType::Xor) {
    e_options = {0, 1};
  } else {
    e_options = {cand.inverting ? 1 : 0};
  }

  // Choose e (and hence the DeMorgan flip f) minimizing inserted inverters.
  int best_e = e_options.front();
  int best_cost = -1;
  for (const int e : e_options) {
    const int f = ca ^ cb ^ e;
    // Tree A receives group B: mismatches = |ones(vA^f) - ones(vB)|, etc.
    const int cost = std::abs(count_ones(la, f) - count_ones(lb, 0)) +
                     std::abs(count_ones(lb, f) - count_ones(la, 0));
    if (best_cost < 0 || cost < best_cost) {
      best_cost = cost;
      best_e = e;
    }
  }
  const int f = ca ^ cb ^ best_e;

  // Snapshot both driver groups before any reconnection.
  std::vector<std::pair<GateId, int>> drivers_a, drivers_b;
  for (const LeafInfo& l : la) drivers_a.emplace_back(net.driver_of(l.pin), l.v);
  for (const LeafInfo& l : lb) drivers_b.emplace_back(net.driver_of(l.pin), l.v);

  edit.inverters_added += reconnect_group(net, placement, lib, la, f, drivers_b);
  edit.inverters_added += reconnect_group(net, placement, lib, lb, f, drivers_a);

  if (f == 1) {
    for (const SuperGate* sg : {&sga, &sgb}) {
      for (const GateId g : sg->covered) {
        const GateType t = net.type(g);
        const GateType nt = flipped_type(t);
        if (nt == t) continue;
        net.set_type(g, nt);
        ++edit.gates_retyped;
        const std::int32_t old_cell = net.cell(g);
        if (old_cell >= 0) {
          const Cell& oc = lib.cell(old_cell);
          const int nc = lib.find(nt, oc.num_inputs, oc.drive_index);
          RAPIDS_ASSERT_MSG(nc >= 0, "library lacks DeMorgan counterpart cell");
          net.set_cell(g, nc);
        }
      }
    }
  }
  edit.applied = true;
  return edit;
}

}  // namespace rapids
