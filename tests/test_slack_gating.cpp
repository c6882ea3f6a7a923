// Slack gating (opt/slack_gate.hpp): the optimizer probes only moves that
// touch a gate on some primary output's max-arrival path. These tests hold
// the rule to its claim — a move it calls cold can lower neither the
// critical delay nor the sum of PO arrivals — on generated and suite
// networks, and pin the reused-inverter clause on a hand-placed netlist
// where it is the only thing keeping a winning swap.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "netlist/builder.hpp"
#include "opt/optimizer.hpp"
#include "opt/slack_gate.hpp"
#include "sizing/sizing.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

struct GatingCount {
  std::size_t cold = 0;
  std::size_t hot = 0;
};

/// Probe every cold swap and resize of the current state against fresh
/// margins: each must leave critical and sum_po at or above the baseline,
/// compared bit for bit. A cold supergate must hold only cold swaps.
/// Returns one hot swap that lowers the critical delay (for the caller to
/// commit), if any.
bool check_cold_moves(RewireEngine& engine, GatingCount& count, EngineMove& winner) {
  Network& net = engine.net();
  Sta& sta = engine.sta();
  engine.refresh_timing_margins();
  EXPECT_TRUE(sta.margins_valid());
  const SlackGate gate(net, sta);
  const double base_critical = sta.critical_delay();
  const double base_sum = sta.sum_po_arrival();
  bool have_winner = false;

  const GisgPartition& part = engine.partition();
  std::vector<std::uint8_t> slot_hot(part.sgs.size(), 0);
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    slot_hot[s] = gate.slot_hot(part.sgs[s]) ? 1 : 0;
  }
  for (const SwapCandidate& c : enumerate_all_swaps(part, net)) {
    const EngineMove move = EngineMove::swap(c);
    const EngineObjective obj = engine.probe(move);
    if (gate.swap_hot(c)) {
      ++count.hot;
      EXPECT_TRUE(slot_hot[static_cast<std::size_t>(c.sg_index)])
          << "hot swap inside a cold supergate rooted at "
          << net.name(part.sgs[static_cast<std::size_t>(c.sg_index)].root);
      if (!have_winner && obj.critical < base_critical) {
        winner = move;
        have_winner = true;
      }
      continue;
    }
    ++count.cold;
    EXPECT_GE(obj.critical, base_critical)
        << "cold swap " << net.name(c.pin_a.gate) << "/" << net.name(c.pin_b.gate);
    EXPECT_GE(obj.sum_po, base_sum)
        << "cold swap " << net.name(c.pin_a.gate) << "/" << net.name(c.pin_b.gate);
  }
  for (const GateId g : net.gates()) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0) continue;
    const bool hot = gate.resize_hot(g);
    for (const int cell : resize_candidates(net, lib035(), g)) {
      if (hot) {
        ++count.hot;
        continue;
      }
      ++count.cold;
      const EngineObjective obj = engine.probe(EngineMove::resize(g, cell));
      EXPECT_GE(obj.critical, base_critical) << "cold resize of " << net.name(g);
      EXPECT_GE(obj.sum_po, base_sum) << "cold resize of " << net.name(g);
    }
  }
  return have_winner;
}

/// The property on one prepared circuit, over a few committed states: the
/// margins are refreshed after every commit, as each optimizer round does.
void expect_cold_moves_cannot_win(const std::string& spec) {
  SCOPED_TRACE(spec);
  FlowOptions options;
  options.placer.effort = 1.0;
  options.placer.num_temps = 4;
  PreparedCircuit prepared = prepare_circuit(spec, load_circuit(spec), lib035(), options);
  Sta sta(prepared.mapped, lib035(), prepared.placement);
  RewireEngine engine(prepared.mapped, prepared.placement, lib035(), sta);
  // Every probe replays undamped and must match the damped objective.
  engine.set_self_check(true);
  GatingCount count;
  for (int state = 0; state < 3; ++state) {
    EngineMove winner;
    if (!check_cold_moves(engine, count, winner)) break;
    engine.commit(winner);
  }
  // Not vacuous: the gate really splits the move set.
  EXPECT_GT(count.cold, 0u);
  EXPECT_GT(count.hot, 0u);
}

TEST(SlackGating, ColdMovesCannotLowerEitherObjectiveOnSuiteCircuits) {
  for (const char* name : {"c432", "c499", "c1908", "alu2"}) {
    expect_cold_moves_cannot_win(name);
  }
}

TEST(SlackGating, ColdMovesCannotLowerEitherObjectiveOnGeneratedCircuits) {
  for (const char* spec : {"gen:1500:1", "gen:1500:2", "gen:3000:5"}) {
    expect_cold_moves_cannot_win(spec);
  }
}

/// Hand-placed netlist where an inverting swap wins only through the
/// inverter it reuses:
///
///   w ──┬── z (BUF) ──────────────── o1     w→z→o1: the critical path
///       ├── n (INV, x8) ──┬── r pin 1
///       │                 └── y pin 1
///       └── d (BUF, no fanout)
///   a ── ia (INV) ── r pin 0;  r = NAND(ia, n) ── y pin 0
///   l ─────────────────────── y pin 2;  y = NAND3(r, n, l) ── o2
///
/// o1's max path is w→z, o2's is l→y; r, ia, a and n are cold. The swap of
/// ia's input with r's pin 1 is inverting: ia's input gets the complement
/// of n, which is n's own input w, and r gets a fresh INV of a. w's star
/// net gains the sink ia, whose pull on the centre of gravity shortens the
/// branch to z by more than the extra load costs, so o1 falls. The swap's
/// pin gates and pin drivers are all cold; only n's hot input keeps it.
struct ReusedInverterCase {
  Network net;
  Placement pl;
  GateId w, n, ia, r, z;
};

ReusedInverterCase reused_inverter_case() {
  const CellLibrary& lib = lib035();
  NetworkBuilder b;
  const GateId w = b.input("w");
  const GateId a = b.input("a");
  const GateId l = b.input("l");
  const GateId z = b.buf(w, "z");
  const GateId n = b.inv(w, "n");
  const GateId d = b.buf(w, "d");
  const GateId ia = b.inv(a, "ia");
  const GateId r = b.nand({ia, n}, "r");
  const GateId y = b.nand({r, n, l}, "y");
  const GateId o1 = b.output("o1", z);
  const GateId o2 = b.output("o2", y);
  ReusedInverterCase c{b.take(), Placement{}, w, n, ia, r, z};
  Network& net = c.net;
  net.set_cell(z, lib.find(GateType::Buf, 1, 0));
  net.set_cell(n, lib.find(GateType::Inv, 1, 3));
  net.set_cell(d, lib.find(GateType::Buf, 1, 0));
  net.set_cell(ia, lib.find(GateType::Inv, 1, 0));
  net.set_cell(r, lib.find(GateType::Nand, 2, 0));
  net.set_cell(y, lib.find(GateType::Nand, 3, 0));
  c.pl = Placement(net.id_bound());
  c.pl.set(w, Point{0, 0});
  c.pl.set(z, Point{-2500, 4000});
  c.pl.set(o1, Point{-2500, 9000});
  c.pl.set(n, Point{-500, 0});
  c.pl.set(d, Point{5000, -5000});
  c.pl.set(a, Point{-1500, 1200});
  c.pl.set(ia, Point{-1500, 1000});
  c.pl.set(r, Point{-1500, 500});
  c.pl.set(y, Point{-1000, 500});
  c.pl.set(o2, Point{-1000, 500});
  c.pl.set(l, Point{-1000, 14500});
  return c;
}

TEST(SlackGating, ReusedInverterInputKeepsTheWinningSwap) {
  ReusedInverterCase c = reused_inverter_case();
  Sta sta(c.net, lib035(), c.pl);
  RewireEngine engine(c.net, c.pl, lib035(), sta);
  engine.refresh_timing_margins();
  const SlackGate gate(c.net, sta);

  // The geometry does what the picture says.
  ASSERT_TRUE(gate.hot(c.w));
  ASSERT_TRUE(gate.hot(c.z));
  for (const GateId g : {c.n, c.ia, c.r, c.net.driver_of(Pin{c.ia, 0})}) {
    ASSERT_FALSE(gate.hot(g)) << c.net.name(g);
  }

  const GisgPartition& part = engine.partition();
  const SwapCandidate* target = nullptr;
  std::vector<SwapCandidate> swaps = enumerate_all_swaps(part, c.net);
  for (const SwapCandidate& s : swaps) {
    const bool ia_pin = s.pin_a == Pin{c.ia, 0} || s.pin_b == Pin{c.ia, 0};
    const bool r_pin = s.pin_a == Pin{c.r, 1} || s.pin_b == Pin{c.r, 1};
    if (ia_pin && r_pin) target = &s;
  }
  ASSERT_NE(target, nullptr) << "ia's input and r's pin 1 share a supergate";
  ASSERT_EQ(target->polarity, SwapPolarity::Inverting);

  // The swap wins: it lowers the critical delay.
  const double base = sta.critical_delay();
  const EngineObjective obj = engine.probe(EngineMove::swap(*target));
  ASSERT_LT(obj.critical, base - 1e-3);

  // Only the reused-inverter clause marks it hot: both pin gates and both
  // pin drivers are cold, but n is an Inv with a hot input.
  EXPECT_TRUE(gate.driver_hot(c.n));
  EXPECT_TRUE(gate.swap_hot(*target));
  EXPECT_TRUE(gate.slot_hot(part.sgs[static_cast<std::size_t>(target->sg_index)]));
}

TEST(SlackGating, ReusedInverterCaseOptimizesUnderSelfCheck) {
  // End to end: the gated optimizer commits the swap, and its self-check
  // oracle (which probes every gated move) stays silent.
  ReusedInverterCase c = reused_inverter_case();
  Sta sta(c.net, lib035(), c.pl);
  OptimizerOptions opt;
  opt.mode = OptMode::Gsg;
  opt.self_check = true;
  const OptimizerResult r = optimize(c.net, c.pl, lib035(), sta, opt);
  EXPECT_GE(r.swaps_committed, 1);
  EXPECT_LT(r.final_delay, r.initial_delay - 1e-3);
}

}  // namespace
}  // namespace rapids
