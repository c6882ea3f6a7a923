// Network data structure, topological utilities, validation, simplify.
#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/simplify.hpp"
#include "netlist/topo.hpp"
#include "netlist/validate.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

TEST(GateType, BaseAndInversion) {
  EXPECT_EQ(base_type(GateType::Nand), GateType::And);
  EXPECT_EQ(base_type(GateType::Nor), GateType::Or);
  EXPECT_EQ(base_type(GateType::Xnor), GateType::Xor);
  EXPECT_EQ(base_type(GateType::Inv), GateType::Buf);
  EXPECT_EQ(inverted_type(GateType::And), GateType::Nand);
  EXPECT_EQ(inverted_type(GateType::Xnor), GateType::Xor);
  EXPECT_TRUE(is_output_inverted(GateType::Nor));
  EXPECT_FALSE(is_output_inverted(GateType::Or));
}

TEST(GateType, ControllingValues) {
  EXPECT_EQ(controlling_value(GateType::And), 0);
  EXPECT_EQ(controlling_value(GateType::Nand), 0);
  EXPECT_EQ(controlling_value(GateType::Or), 1);
  EXPECT_EQ(controlling_value(GateType::Nor), 1);
  EXPECT_EQ(non_controlling_value(GateType::And), 1);
  EXPECT_FALSE(has_controlling_value(GateType::Xor));
  EXPECT_THROW(controlling_value(GateType::Xor), InternalError);
}

TEST(GateType, ImplicationTrigger) {
  EXPECT_EQ(implication_trigger_output(GateType::And), 1);
  EXPECT_EQ(implication_trigger_output(GateType::Nand), 0);
  EXPECT_EQ(implication_trigger_output(GateType::Or), 0);
  EXPECT_EQ(implication_trigger_output(GateType::Nor), 1);
}

TEST(GateType, EvalWord) {
  const std::uint64_t a = 0b1100, b = 0b1010;
  const std::uint64_t fan[2] = {a, b};
  EXPECT_EQ(eval_word(GateType::And, fan, 2) & 0xF, 0b1000u);
  EXPECT_EQ(eval_word(GateType::Or, fan, 2) & 0xF, 0b1110u);
  EXPECT_EQ(eval_word(GateType::Xor, fan, 2) & 0xF, 0b0110u);
  EXPECT_EQ(eval_word(GateType::Nand, fan, 2) & 0xF, 0b0111u);
  EXPECT_EQ(eval_word(GateType::Nor, fan, 2) & 0xF, 0b0001u);
  EXPECT_EQ(eval_word(GateType::Xnor, fan, 2) & 0xF, 0b1001u);
  EXPECT_EQ(eval_word(GateType::Inv, fan, 1) & 0xF, 0b0011u);
  EXPECT_EQ(eval_word(GateType::Buf, fan, 1) & 0xF, 0b1100u);
}

TEST(GateType, StringRoundTrip) {
  for (int i = 0; i < kNumGateTypes; ++i) {
    const GateType t = static_cast<GateType>(i);
    EXPECT_EQ(gate_type_from_string(to_string(t)), t);
  }
  EXPECT_THROW(gate_type_from_string("FROB"), InputError);
}

TEST(Network, BasicConstruction) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.nand({x, y});
  b.output("f", g);
  const Network& net = b.net();

  EXPECT_EQ(net.num_gates(), 4u);
  EXPECT_EQ(net.num_logic_gates(), 1u);
  EXPECT_EQ(net.primary_inputs().size(), 2u);
  EXPECT_EQ(net.primary_outputs().size(), 1u);
  EXPECT_EQ(net.fanin_count(g), 2u);
  EXPECT_EQ(net.fanout_count(x), 1u);
  EXPECT_EQ(net.type(g), GateType::Nand);
}

TEST(Network, NamesUniqueAndFindable) {
  NetworkBuilder b;
  const GateId x = b.input("sig");
  EXPECT_EQ(b.net().find("sig"), x);
  EXPECT_EQ(b.net().find("nope"), kNullGate);
  EXPECT_THROW(b.input("sig"), InternalError);
}

TEST(Network, SetFaninMaintainsFanouts) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId g = b.and_({x, y});
  b.output("f", g);
  Network net = b.take();

  net.set_fanin(Pin{g, 0}, z);
  EXPECT_EQ(net.fanin(g, 0), z);
  EXPECT_EQ(net.fanout_count(x), 0u);
  EXPECT_EQ(net.fanout_count(z), 1u);
  validate_or_throw(net);
}

TEST(Network, RemoveFaninShiftsAndReindexes) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y"), z = b.input("z");
  const GateId g = b.and_({x, y, z});
  b.output("f", g);
  Network net = b.take();

  net.remove_fanin(g, 1);  // drop y
  EXPECT_EQ(net.fanin_count(g), 2u);
  EXPECT_EQ(net.fanin(g, 0), x);
  EXPECT_EQ(net.fanin(g, 1), z);
  EXPECT_EQ(net.fanout_count(y), 0u);
  validate_or_throw(net);
}

TEST(Network, DeleteGateRules) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.inv(x);
  const GateId h = b.inv(g);
  b.output("f", h);
  Network net = b.take();

  EXPECT_THROW(net.delete_gate(g), InternalError);  // still drives h
  net.set_fanin(Pin{h, 0}, x);
  net.delete_gate(g);
  EXPECT_TRUE(net.is_deleted(g));
  EXPECT_EQ(net.num_logic_gates(), 1u);
  validate_or_throw(net);
}

TEST(Network, ReplaceAllFanouts) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g1 = b.inv(x);
  b.output("f1", b.and_({g1, y}));
  b.output("f2", b.or_({g1, y}));
  Network net = b.take();

  net.replace_all_fanouts(g1, y);
  EXPECT_EQ(net.fanout_count(g1), 0u);
  EXPECT_EQ(net.fanout_count(y), 4u);
  validate_or_throw(net);
}

TEST(Network, CloneIsDeep) {
  Network net = rapids::testing::random_mapped_network(5);
  Network copy = net.clone();
  const GateId some = rapids::testing::live_gates(net).back();
  if (net.fanin_count(some) > 0) {
    copy.set_fanin(Pin{some, 0}, copy.primary_inputs()[0]);
  }
  validate_or_throw(net);  // original untouched
}

void expect_fanouts_sorted(const Network& net, const char* when) {
  for (const GateId g : net.gates()) {
    const auto fo = net.fanouts(g);
    for (std::size_t i = 1; i < fo.size(); ++i) {
      EXPECT_LT(fo[i - 1], fo[i]) << when << ": gate " << g << " fanout " << i;
    }
  }
}

TEST(Network, FanoutListsStaySortedOnceSorted) {
  // Before sort_fanouts() a list keeps insertion order and removal swaps
  // with the last entry: the mapper, decomposition and simplify see that
  // order through topological_order, so their netlists depend on it.
  {
    NetworkBuilder b;
    const GateId x = b.input("x"), y = b.input("y");
    const GateId g1 = b.inv(x), g2 = b.inv(x), g3 = b.inv(x);
    b.output("f", b.and_({g1, g2, g3}));
    Network net = b.take();
    net.set_fanin(Pin{g1, 0}, y);
    const auto fo = net.fanouts(x);
    ASSERT_EQ(fo.size(), 2u);
    EXPECT_EQ(fo[0], (Pin{g3, 0}));
    EXPECT_EQ(fo[1], (Pin{g2, 0}));
  }

  // After it, every mutation keeps each list strictly increasing by
  // (gate, index). Drivers always have lower ids than their sinks, so the
  // network stays acyclic.
  Rng rng(20261021);
  NetworkBuilder b;
  std::vector<GateId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(b.input("i" + std::to_string(i)));
  for (int i = 0; i < 40; ++i) {
    std::vector<GateId> ins;
    const int k = rng.next_int(2, 4);
    for (int j = 0; j < k; ++j) ins.push_back(pool[rng.next_below(pool.size())]);
    pool.push_back(b.and_(ins));
  }
  for (int i = 0; i < 4; ++i) b.output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
  Network net = b.take();
  net.sort_fanouts();
  expect_fanouts_sorted(net, "sort_fanouts");

  const auto live_below = [&](GateId bound) {
    for (;;) {
      const GateId d = static_cast<GateId>(rng.next_below(bound));
      if (!net.is_deleted(d)) return d;
    }
  };
  for (int step = 0; step < 2000; ++step) {
    const GateId g = pool[6 + rng.next_below(40)];
    if (net.is_deleted(g)) continue;
    switch (rng.next_below(5)) {
      case 0:
        net.add_fanin(g, live_below(g));
        break;
      case 1:
        net.set_fanin(Pin{g, static_cast<std::uint32_t>(rng.next_below(net.fanin_count(g)))},
                      live_below(g));
        break;
      case 2:
        if (net.fanin_count(g) > 2) {
          net.remove_fanin(g, static_cast<std::uint32_t>(rng.next_below(net.fanin_count(g))));
        }
        break;
      case 3:
        net.replace_all_fanouts(g, live_below(g));
        break;
      case 4:
        if (net.fanout_count(g) == 0) net.delete_gate(g);
        break;
    }
    if (step % 100 == 0) expect_fanouts_sorted(net, "mutation");
  }
  expect_fanouts_sorted(net, "mutations");
  EXPECT_TRUE(validate(net).empty());

  // A clone inherits the order and keeps it under mutation.
  Network copy = net.clone();
  const GateId in0 = copy.primary_inputs()[0];
  for (const GateId po : copy.primary_outputs()) copy.set_fanin(Pin{po, 0}, in0);
  for (const GateId g : copy.gates()) {
    if (copy.type(g) == GateType::And) copy.add_fanin(g, in0);
  }
  expect_fanouts_sorted(copy, "clone");
  EXPECT_TRUE(validate(copy).empty());
}

TEST(Topo, OrderRespectsEdges) {
  const Network net = rapids::testing::random_mapped_network(9);
  const std::vector<GateId> order = topological_order(net);
  std::vector<int> rank(net.id_bound(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = static_cast<int>(i);
  net.for_each_gate([&](GateId g) {
    for (const GateId f : net.fanins(g)) {
      EXPECT_LT(rank[f], rank[g]);
    }
  });
}

TEST(Topo, LevelsMonotone) {
  const Network net = rapids::testing::random_mapped_network(10);
  const std::vector<int> level = logic_levels(net);
  net.for_each_gate([&](GateId g) {
    if (net.type(g) == GateType::Output) return;
    for (const GateId f : net.fanins(g)) {
      EXPECT_LT(level[f], level[g]);
    }
  });
  EXPECT_GT(network_depth(net), 0);
}

TEST(Topo, ConeContainment) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.and_({x, y});
  const GateId h = b.inv(g);
  b.output("f", h);
  const Network net = b.take();

  const auto fic = fanin_cone(net, h);
  EXPECT_TRUE(std::find(fic.begin(), fic.end(), x) != fic.end());
  EXPECT_TRUE(std::find(fic.begin(), fic.end(), g) != fic.end());
  const auto foc = fanout_cone(net, x);
  EXPECT_TRUE(std::find(foc.begin(), foc.end(), h) != foc.end());
  EXPECT_TRUE(reaches(net, x, h));
  EXPECT_FALSE(reaches(net, h, x));
}

TEST(Validate, DetectsCycle) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.and_({x, x});
  const GateId h = b.and_({g, x});
  b.output("f", h);
  Network net = b.take();
  net.set_fanin(Pin{g, 1}, h);  // g <- h <- g: cycle
  EXPECT_FALSE(is_acyclic(net));
  EXPECT_FALSE(validate(net).empty());
}

TEST(Validate, CleanNetworkPasses) {
  const Network net = rapids::testing::random_mapped_network(77);
  EXPECT_TRUE(validate(net).empty());
}

// --- simplify ---------------------------------------------------------------

TEST(Simplify, ControllingConstantFoldsGate) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.and_({x, b.const0()});
  b.output("f", g);
  Network net = b.take();
  propagate_constants(net);
  // f is now constant 0.
  const GateId po = net.primary_outputs()[0];
  EXPECT_EQ(net.type(net.po_driver(po)), GateType::Const0);
}

TEST(Simplify, NonControllingConstantDropsInput) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.and_({x, y, b.const1()});
  b.output("f", g);
  Network net = b.take();
  const Network golden = net.clone();
  propagate_constants(net);
  EXPECT_EQ(net.fanin_count(net.po_driver(net.primary_outputs()[0])), 2u);
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);
}

TEST(Simplify, XorConstantFlipsParity) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId g = b.xor_({x, y, b.const1()});
  b.output("f", g);
  Network net = b.take();
  const Network golden = net.clone();
  propagate_constants(net);
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);
  // x ^ y ^ 1 should become XNOR or XOR+INV — either way 2-input.
  EXPECT_EQ(net.fanin_count(net.po_driver(net.primary_outputs()[0])), 2u);
}

TEST(Simplify, SingleInputGateBecomesBufInv) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId g = b.nand({x, b.const1()});
  b.output("f", g);
  Network net = b.take();
  const Network golden = net.clone();
  simplify(net);
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);
  // NAND(x, 1) == INV(x).
  EXPECT_EQ(net.type(net.po_driver(net.primary_outputs()[0])), GateType::Inv);
}

TEST(Simplify, CollapseBufferChains) {
  NetworkBuilder b;
  const GateId x = b.input("x");
  const GateId v = b.buf(b.buf(b.inv(b.inv(x))));
  b.output("f", v);
  Network net = b.take();
  const Network golden = net.clone();
  collapse_buffers(net);
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);
  EXPECT_EQ(net.po_driver(net.primary_outputs()[0]), x);
}

TEST(Simplify, RandomNetworksPreserveFunction) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    Network net = rapids::testing::random_mapped_network(seed);
    const Network golden = net.clone();
    simplify(net);
    validate_or_throw(net);
    EXPECT_TRUE(check_equivalence(golden, net).equivalent) << "seed " << seed;
  }
}

TEST(Simplify, SweepRemovesDanglingCone) {
  NetworkBuilder b;
  const GateId x = b.input("x"), y = b.input("y");
  const GateId used = b.and_({x, y});
  b.inv(used);  // dangling inverter
  b.output("f", used);
  Network net = b.take();
  EXPECT_EQ(net.sweep_dangling(), 1u);
  EXPECT_EQ(net.num_logic_gates(), 1u);
}

}  // namespace
}  // namespace rapids
