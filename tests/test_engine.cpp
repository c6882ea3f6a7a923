// RewireEngine: transactional probe/commit/rollback over swap and resize
// moves; exact-round-trip guarantees; the stale-candidate contract; id
// recycling under probe loops; probes bounded by a critical-delay cap.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "netlist/builder.hpp"
#include "netlist/validate.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "rewire/swap.hpp"
#include "sizing/sizing.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

/// Everything a probe must restore exactly.
struct StateSnapshot {
  std::vector<GateType> types;
  std::vector<std::int32_t> cells;
  std::vector<std::vector<GateId>> fanins;
  // In list order: an engine keeps fanout lists sorted, so an undo must
  // restore the order as well as the set.
  std::vector<std::vector<Pin>> fanouts;
  std::vector<bool> placed;
  std::vector<Point> positions;
  std::size_t num_gates = 0;
  double critical = 0.0;

  static StateSnapshot capture(const Network& net, const Placement& pl, const Sta& sta) {
    StateSnapshot s;
    s.num_gates = net.num_gates();
    s.critical = sta.critical_delay();
    for (GateId g = 0; g < net.id_bound(); ++g) {
      if (net.is_deleted(g)) {
        s.types.push_back(GateType::Buf);
        s.cells.push_back(-2);
        s.fanins.emplace_back();
        s.fanouts.emplace_back();
        s.placed.push_back(false);
        s.positions.push_back(Point{});
        continue;
      }
      s.types.push_back(net.type(g));
      s.cells.push_back(net.cell(g));
      const auto f = net.fanins(g);
      s.fanins.emplace_back(f.begin(), f.end());
      const auto fo = net.fanouts(g);
      s.fanouts.emplace_back(fo.begin(), fo.end());
      s.placed.push_back(pl.is_placed(g));
      s.positions.push_back(pl.is_placed(g) ? pl.at(g) : Point{});
    }
    return s;
  }
};

void expect_restored(const StateSnapshot& a, const Network& net, const Placement& pl,
                     const Sta& sta) {
  ASSERT_EQ(a.num_gates, net.num_gates());
  EXPECT_NEAR(a.critical, sta.critical_delay(), 1e-12);
  ASSERT_LE(a.types.size(), net.id_bound());
  for (GateId g = 0; g < a.types.size(); ++g) {
    if (a.cells[g] == -2) {
      EXPECT_TRUE(net.is_deleted(g)) << "gate " << g << " resurrected";
      continue;
    }
    ASSERT_FALSE(net.is_deleted(g)) << "gate " << g << " vanished";
    EXPECT_EQ(a.types[g], net.type(g)) << "gate " << g;
    EXPECT_EQ(a.cells[g], net.cell(g)) << "gate " << g;
    const auto f = net.fanins(g);
    ASSERT_EQ(a.fanins[g].size(), f.size()) << "gate " << g;
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(a.fanins[g][i], f[i]) << "gate " << g << " pin " << i;
    }
    const auto fo = net.fanouts(g);
    ASSERT_EQ(a.fanouts[g].size(), fo.size()) << "gate " << g;
    for (std::size_t i = 0; i < fo.size(); ++i) {
      EXPECT_EQ(a.fanouts[g][i], fo[i]) << "gate " << g << " fanout " << i;
    }
    EXPECT_EQ(a.placed[g], pl.is_placed(g)) << "gate " << g;
    if (a.placed[g]) {
      EXPECT_EQ(a.positions[g], pl.at(g)) << "gate " << g;
    }
  }
  // Any gates beyond the snapshot bound must be tombstones left by undone
  // probes (never live).
  for (GateId g = static_cast<GateId>(a.types.size()); g < net.id_bound(); ++g) {
    EXPECT_TRUE(net.is_deleted(g));
  }
}

struct EngineFixture {
  CellLibrary lib = lib035();
  Network net;
  Placement pl;

  explicit EngineFixture(const std::string& bench = "alu2") {
    net = map_network(make_benchmark(bench), lib).mapped;
    PlacerOptions popt;
    popt.effort = 1.0;
    popt.num_temps = 4;
    pl = place(net, lib, popt);
  }
};

TEST(RewireEngine, SwapProbeRoundTripsExactly) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const auto swaps = enumerate_all_swaps(engine.partition(), f.net);
  ASSERT_FALSE(swaps.empty());

  const Network golden = f.net.clone();
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  // Both polarities, every candidate, twice (second pass exercises the
  // recycled-id path for inverting swaps).
  for (int pass = 0; pass < 2; ++pass) {
    for (const SwapCandidate& c : swaps) {
      engine.probe(EngineMove::swap(c));
    }
  }
  expect_restored(snap, f.net, f.pl, sta);
  EXPECT_TRUE(validate(f.net).empty());
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
  EXPECT_EQ(engine.stats().probes, 2 * swaps.size());
  EXPECT_EQ(engine.stats().swaps_committed, 0);
}

TEST(RewireEngine, ProbeLoopsDoNotGrowIdSpace) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), f.net)) {
    if (c.polarity == SwapPolarity::Inverting) inverting.push_back(c);
  }
  ASSERT_FALSE(inverting.empty());
  // Warm up once (the first inverting probe may extend the id space), then
  // the arena must reach a fixed point: tombstoned inverter ids recycle.
  for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));
  const std::size_t bound = f.net.id_bound();
  for (int pass = 0; pass < 8; ++pass) {
    for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));
  }
  EXPECT_EQ(bound, f.net.id_bound());
}

TEST(RewireEngine, ChurnRestoresFreeStackAndTombstonesExactly) {
  // Arena churn: repeated insert/delete/undo cycles must restore the
  // recycled-id free stack AND the tombstone set bit-exactly, not just
  // keep id_bound() flat. This is the direct statement of the reverse-order
  // undo guarantee: any drift in the stack would make probe results depend
  // on probe history (recycled ids would come back in a different order).
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), f.net)) {
    if (c.polarity == SwapPolarity::Inverting) inverting.push_back(c);
  }
  ASSERT_GT(inverting.size(), 3u);

  // Warm up so the id space and free stack reach steady state.
  for (const SwapCandidate& c : inverting) engine.probe(EngineMove::swap(c));

  const std::vector<GateId> stack_before(engine.net().recycling_free_ids().begin(),
                                         engine.net().recycling_free_ids().end());
  std::vector<bool> tombstones_before;
  for (GateId g = 0; g < f.net.id_bound(); ++g) {
    tombstones_before.push_back(f.net.is_deleted(g));
  }

  Rng rng(0xc4u);
  for (int cycle = 0; cycle < 500; ++cycle) {
    engine.probe(EngineMove::swap(inverting[rng.next_below(inverting.size())]));
    const auto stack_now = engine.net().recycling_free_ids();
    ASSERT_EQ(stack_before.size(), stack_now.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < stack_now.size(); ++i) {
      ASSERT_EQ(stack_before[i], stack_now[i])
          << "free-stack entry " << i << " drifted at cycle " << cycle;
    }
    ASSERT_EQ(tombstones_before.size(), f.net.id_bound()) << "cycle " << cycle;
    for (GateId g = 0; g < f.net.id_bound(); ++g) {
      ASSERT_EQ(tombstones_before[g], f.net.is_deleted(g))
          << "tombstone " << g << " drifted at cycle " << cycle;
    }
  }
  EXPECT_TRUE(validate(f.net).empty());
}

TEST(RewireEngine, InverterReuseAndInsertionUndo) {
  // h = NAND(INV(c), d) with d = INV(e) kept multi-fanout (drives an extra
  // output) so it is NOT absorbed into the supergate. The inverting swap of
  // the two leaf pins must REUSE d's input e for one side (d is an
  // inverter: no new gate) and INSERT exactly one fresh inverter for the
  // complement of c; undo removes exactly the inserted one. NAND (not AND)
  // so every gate binds directly in the 0.35um library without mapping.
  NetworkBuilder b;
  const GateId e = b.input("e");
  const GateId c = b.input("c");
  const GateId d = b.inv(e, "d");
  const GateId ic = b.inv(c, "ic");
  const GateId h = b.nand({ic, d}, "h");
  b.output("y", h);
  b.output("z", d);  // second fanout keeps d outside the supergate
  Network net = b.take();
  // Bind cells directly (no mapper) so the structure stays exactly as built.
  for (const GateId g : net.gates()) {
    if (is_logic(net.type(g))) {
      net.set_cell(g, lib035().smallest(net.type(g), static_cast<int>(net.fanin_count(g))));
      ASSERT_GE(net.cell(g), 0);
    }
  }
  Placement pl(net.id_bound());
  for (const GateId g : net.gates()) pl.set(g, Point{0, 0});
  pl.set_die(Die{});

  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);
  std::vector<SwapCandidate> inverting;
  for (const SwapCandidate& cand : enumerate_all_swaps(engine.partition(), net)) {
    if (cand.polarity == SwapPolarity::Inverting) inverting.push_back(cand);
  }
  ASSERT_FALSE(inverting.empty());

  const Network golden = net.clone();
  const std::size_t gates_before = net.num_gates();
  for (const SwapCandidate& cand : inverting) {
    SwapEdit edit = apply_swap(net, pl, lib035(), cand);
    // d's side reused e; only c's complement needed a fresh inverter.
    EXPECT_EQ(1u, edit.added_inverters.size());
    const GateId da = net.driver_of(edit.pin_a);
    const GateId db = net.driver_of(edit.pin_b);
    EXPECT_TRUE(da == e || db == e) << "reuse path not taken";
    undo_swap(net, pl, edit);
    EXPECT_EQ(gates_before, net.num_gates());
  }
  EXPECT_TRUE(check_equivalence(golden, net).equivalent);

  // Probing through the engine round-trips the same way.
  const StateSnapshot snap = StateSnapshot::capture(net, pl, sta);
  for (const SwapCandidate& cand : inverting) engine.probe(EngineMove::swap(cand));
  expect_restored(snap, net, pl, sta);
}

TEST(RewireEngine, ResizeProbeRoundTripsExactly) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  int probed = 0;
  for (const GateId g : f.net.gates()) {
    if (!is_logic(f.net.type(g)) || f.net.cell(g) < 0) continue;
    for (const int cand : resize_candidates(f.net, f.lib, g)) {
      engine.probe(EngineMove::resize(g, cand));
      ++probed;
    }
    if (probed > 200) break;
  }
  ASSERT_GT(probed, 0);
  expect_restored(snap, f.net, f.pl, sta);
}

TEST(RewireEngine, CommitBumpsEpochAndReextractsPartition) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const GisgPartition& before = engine.partition();
  const std::size_t sgs_before = before.sgs.size();
  const auto swaps = enumerate_all_swaps(before, f.net);
  ASSERT_FALSE(swaps.empty());
  const std::uint64_t epoch0 = engine.epoch();

  const Network golden = f.net.clone();
  engine.commit(EngineMove::swap(swaps.front()));
  EXPECT_EQ(epoch0 + 1, engine.epoch());
  EXPECT_EQ(1, engine.stats().swaps_committed);

  // The stale-candidate contract (rewire/swap.hpp): after a commit the
  // engine re-derives the partition from the restructured netlist instead
  // of serving the stale one. Pre-commit SuperGate pointers must not be
  // consulted again — the engine gives the fresh extraction.
  const GisgPartition& after = engine.partition();
  ASSERT_GE(after.sgs.size(), 1u);
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
  (void)sgs_before;

  // Fresh candidates from the new epoch remain probe-safe.
  const auto swaps2 = enumerate_all_swaps(after, f.net);
  for (const SwapCandidate& c : swaps2) engine.probe(EngineMove::swap(c));
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
}

TEST(RewireEngine, CommitAndRevertRestoresState) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  const auto swaps = enumerate_all_swaps(engine.partition(), f.net);
  ASSERT_FALSE(swaps.empty());
  const Network golden = f.net.clone();
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  for (const SwapCandidate& c : swaps) {
    engine.commit_and_revert(EngineMove::swap(c));
  }
  expect_restored(snap, f.net, f.pl, sta);
  EXPECT_TRUE(check_equivalence(golden, f.net).equivalent);
}

TEST(RemoveDanglingInverters, DeletesOnlyFanoutFreeInverterChains) {
  NetworkBuilder b;
  const GateId a = b.input("a");
  const GateId n1 = b.inv(a, "n1");       // feeds the output: must stay
  const GateId n2 = b.inv(n1, "n2");      // dangling
  const GateId n3 = b.inv(n2, "n3");      // dangling chain head
  b.output("y", n1);
  Network net = b.take();
  (void)n3;

  const std::size_t removed = remove_dangling_inverters(net);
  EXPECT_EQ(2u, removed);  // n3 first, then n2 becomes fanout-free
  EXPECT_FALSE(net.is_deleted(n1));
  EXPECT_TRUE(net.is_deleted(n2));
  EXPECT_TRUE(net.is_deleted(n3));
  EXPECT_TRUE(validate(net).empty());
}

TEST(AdjacencyArena, ChunksRecycleAcrossDeleteAddCycles) {
  // Steady-state add/delete of gates must not grow the adjacency pools:
  // released chunks feed later allocations of the same size class.
  NetworkBuilder b;
  const GateId a = b.input("a");
  const GateId c = b.input("c");
  Network net = b.take();
  net.set_id_recycling(true);
  // Warm-up allocates; afterwards id_bound must stay fixed.
  for (int i = 0; i < 4; ++i) {
    const GateId g = net.add_gate(GateType::And);
    net.add_fanin(g, a);
    net.add_fanin(g, c);
    net.delete_gate(g);
  }
  const std::size_t bound = net.id_bound();
  for (int i = 0; i < 1000; ++i) {
    const GateId g = net.add_gate(GateType::And);
    net.add_fanin(g, a);
    net.add_fanin(g, c);
    net.delete_gate(g);
  }
  EXPECT_EQ(bound, net.id_bound());
  net.set_id_recycling(false);
  // With recycling off, ids tombstone forever again.
  const GateId g1 = net.add_gate(GateType::Inv);
  net.add_fanin(g1, a);
  const std::size_t after = net.id_bound();
  net.delete_gate(g1);
  const GateId g2 = net.add_gate(GateType::Inv);
  EXPECT_EQ(after + 1, net.id_bound());
  EXPECT_NE(g1, g2);
}

// --- bounded probes -----------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ProbeRun {
  EngineObjective obj;
  std::uint64_t pops = 0;
};

/// One probe of `move` under `cap`, with the worklist pops it cost.
ProbeRun probe_counting(RewireEngine& engine, const EngineMove& move, double cap) {
  const std::uint64_t before = engine.sta().gates_propagated();
  ProbeRun run;
  run.obj = engine.probe(move, cap);
  run.pops = engine.sta().gates_propagated() - before;
  return run;
}

/// Every resize candidate of the first 200 mapped logic gates, gate by gate.
std::vector<EngineMove> resize_moves(const Network& net, const CellLibrary& lib) {
  std::vector<EngineMove> moves;
  int gates = 0;
  for (const GateId g : net.gates()) {
    if (!is_logic(net.type(g)) || net.cell(g) < 0) continue;
    for (const int cand : resize_candidates(net, lib, g)) {
      moves.push_back(EngineMove::resize(g, cand));
    }
    if (++gates == 200) break;
  }
  return moves;
}

TEST(BoundedProbe, WorseningSwapStopsEarlyAndRollsBackExactly) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  engine.refresh_timing_margins();
  const double base = sta.critical_delay();
  const auto swaps = enumerate_all_swaps(engine.partition(), f.net);
  ASSERT_FALSE(swaps.empty());
  const StateSnapshot snap = StateSnapshot::capture(f.net, f.pl, sta);
  const std::vector<RiseFall> arrivals(sta.arrivals().begin(), sta.arrivals().end());

  std::uint64_t bounded = 0, bounded_pops = 0, exact_pops = 0;
  for (const SwapCandidate& c : swaps) {
    const EngineMove move = EngineMove::swap(c);
    const ProbeRun exact = probe_counting(engine, move, kInf);
    const ProbeRun capped = probe_counting(engine, move, base);
    if (capped.obj.critical == kInf) {
      // Stopped: the exact probe must really be worse than the cap, the
      // stopped walk a prefix of the full one, and the state untouched —
      // the same move re-probed uncapped reads bit for bit the same.
      ++bounded;
      EXPECT_GT(exact.obj.critical, base);
      EXPECT_EQ(capped.obj.sum_po, kInf);
      EXPECT_LE(capped.pops, exact.pops);
      bounded_pops += capped.pops;
      exact_pops += exact.pops;
      const EngineObjective again = engine.probe(move);
      EXPECT_EQ(again.critical, exact.obj.critical);
      EXPECT_EQ(again.sum_po, exact.obj.sum_po);
    } else {
      EXPECT_EQ(capped.obj.critical, exact.obj.critical);
      EXPECT_EQ(capped.obj.sum_po, exact.obj.sum_po);
    }
  }
  ASSERT_GT(bounded, 0u) << "no swap worsened the critical delay provably";
  EXPECT_LT(bounded_pops, exact_pops);
  EXPECT_EQ(engine.stats().probes_bounded, bounded);
  expect_restored(snap, f.net, f.pl, sta);
  EXPECT_TRUE(sta.margins_valid());
  // The first probe grows the arrays over the engine's id reserve; the
  // slots beyond the snapshot are tombstones.
  const auto after = sta.arrivals();
  ASSERT_GE(after.size(), arrivals.size());
  for (GateId g = 0; g < arrivals.size(); ++g) {
    EXPECT_EQ(after[g].rise, arrivals[g].rise) << "gate " << g;
    EXPECT_EQ(after[g].fall, arrivals[g].fall) << "gate " << g;
  }

  // Self-check replays every bounded probe uncapped; it must agree.
  engine.set_self_check(true);
  for (const SwapCandidate& c : swaps) {
    EXPECT_NO_THROW(engine.probe(EngineMove::swap(c), base));
  }
  EXPECT_EQ(engine.stats().probes_bounded, 2 * bounded);
}

TEST(BoundedProbe, InfiniteCapOrStaleMarginsNeverBound) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  engine.refresh_timing_margins();
  std::vector<EngineMove> moves;
  for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), f.net)) {
    moves.push_back(EngineMove::swap(c));
  }
  for (const EngineMove& m : resize_moves(f.net, f.lib)) moves.push_back(m);
  ASSERT_FALSE(moves.empty());
  for (const EngineMove& m : moves) {
    EXPECT_TRUE(std::isfinite(engine.probe(m).critical));
    EXPECT_TRUE(std::isfinite(engine.probe(m, kInf).critical));
  }
  EXPECT_EQ(engine.stats().probes_bounded, 0u);

  // Without valid margins there are no tails to bound with: even a cap
  // below every possible critical delay reads the exact objective.
  engine.commit(moves.front());
  ASSERT_FALSE(sta.margins_valid());
  for (const EngineMove& m : resize_moves(f.net, f.lib)) {
    const EngineObjective exact = engine.probe(m);
    const EngineObjective capped = engine.probe(m, -1.0);
    EXPECT_EQ(capped.critical, exact.critical);
    EXPECT_EQ(capped.sum_po, exact.sum_po);
  }
  EXPECT_EQ(engine.stats().probes_bounded, 0u);
}

TEST(BoundedProbe, CapAtTheExactCriticalNeverBounds) {
  // The bound is a proof, so a probe capped at exactly its own critical
  // delay must never stop (a bound without the rounding guard does). The
  // swaps include ones that rewire a sink onto a new driver on the sink's
  // own level, whose stored arrival may be non-final and must not bound;
  // SelfCheckedFlowsMatchPlainFlows below is where that case bites.
  std::uint64_t same_level = 0, probed = 0;
  for (const std::uint64_t seed : {4242u, 90125u, 7u, 11u, 23u, 31u}) {
    Network net = testing::mapped(testing::random_mapped_network(seed, 12, 120, 6));
    PlacerOptions popt;
    popt.effort = 1.0;
    popt.num_temps = 4;
    Placement pl = place(net, lib035(), popt);
    Sta sta(net, lib035(), pl);
    RewireEngine engine(net, pl, lib035(), sta);
    engine.set_self_check(true);
    engine.refresh_timing_margins();
    // A copy: the first probe grows the Sta's arrays over the id reserve.
    const std::vector<int> levels(sta.levels().begin(), sta.levels().end());
    for (const SwapCandidate& c : enumerate_all_swaps(engine.partition(), net)) {
      const GateId da = net.driver_of(c.pin_a);
      const GateId db = net.driver_of(c.pin_b);
      if (levels[c.pin_a.gate] == levels[db] || levels[c.pin_b.gate] == levels[da]) {
        ++same_level;
      }
      const EngineMove move = EngineMove::swap(c);
      const EngineObjective exact = engine.probe(move);
      const EngineObjective capped = engine.probe(move, exact.critical);
      EXPECT_EQ(capped.critical, exact.critical) << "seed " << seed;
      EXPECT_EQ(capped.sum_po, exact.sum_po) << "seed " << seed;
      ++probed;
    }
    EXPECT_EQ(engine.stats().probes_bounded, 0u) << "seed " << seed;
  }
  EXPECT_GT(probed, 0u);
  EXPECT_GT(same_level, 0u) << "no same-level rewire exercised";
}

/// The scheduler's per-group selection re-derived from uncapped probes: the
/// reference the capped probe_round must reproduce winner for winner.
GroupResult reference_winner(RewireEngine& engine, const ProbeGroup& group,
                             ProbePolicy policy, double threshold) {
  constexpr double kGainTie = 1e-12;
  constexpr double kCritSlack = 1e-9;
  const double base = engine.sta().critical_delay();
  const double base_sum = engine.sta().sum_po_arrival();
  GroupResult r;
  double best_gain = 0.0;
  double best_sum_gain = policy == ProbePolicy::Relaxation ? threshold : 0.0;
  for (std::size_t i = 0; i < group.moves.size(); ++i) {
    const EngineObjective obj = engine.probe(group.moves[i]);
    const double gain = base - obj.critical;
    const double sum_gain = base_sum - obj.sum_po;
    bool take = false;
    switch (policy) {
      case ProbePolicy::MinCritical:
        take = gain > best_gain + kGainTie ||
               (gain > threshold && std::abs(gain - best_gain) <= kGainTie &&
                sum_gain > best_sum_gain);
        break;
      case ProbePolicy::Relaxation:
        take = obj.critical <= base + kCritSlack && sum_gain > best_sum_gain;
        break;
      case ProbePolicy::FirstFit:
        take = !r.has_move && obj.critical <= threshold;
        break;
    }
    if (!take) continue;
    r.has_move = true;
    r.move_index = static_cast<int>(i);
    r.probed = obj;
    best_gain = gain;
    best_sum_gain = sum_gain;
  }
  if (policy == ProbePolicy::MinCritical && best_gain <= threshold) r.has_move = false;
  return r;
}

TEST(BoundedProbe, PolicyWinnersMatchUncappedProbes) {
  EngineFixture f;
  Sta sta(f.net, f.lib, f.pl);
  RewireEngine engine(f.net, f.pl, f.lib, sta);
  engine.refresh_timing_margins();
  std::vector<ProbeGroup> swap_groups;
  const GisgPartition& part = engine.partition();
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    ProbeGroup g;
    for (const SwapCandidate& c : enumerate_swaps(part, static_cast<int>(s), f.net)) {
      g.moves.push_back(EngineMove::swap(c));
    }
    if (!g.moves.empty()) swap_groups.push_back(std::move(g));
  }
  // One group per gate, holding its resize candidates in library order.
  std::vector<ProbeGroup> resize_groups;
  for (const EngineMove& m : resize_moves(f.net, f.lib)) {
    if (resize_groups.empty() || resize_groups.back().moves.front().gate != m.gate) {
      resize_groups.emplace_back();
    }
    resize_groups.back().moves.push_back(m);
  }
  ASSERT_FALSE(swap_groups.empty());
  ASSERT_FALSE(resize_groups.empty());

  ParallelRewireScheduler sched(engine, SchedulerOptions{});
  const double base = sta.critical_delay();
  const struct {
    ProbePolicy policy;
    double threshold;
    const std::vector<ProbeGroup>& groups;
  } cases[] = {{ProbePolicy::MinCritical, 1e-6, swap_groups},
               {ProbePolicy::MinCritical, 1e-6, resize_groups},
               {ProbePolicy::Relaxation, 1e-6, swap_groups},
               {ProbePolicy::Relaxation, 1e-6, resize_groups},
               {ProbePolicy::FirstFit, base + 1e-6, resize_groups}};
  for (const auto& c : cases) {
    const std::uint64_t bounded0 = engine.stats().probes_bounded;
    const std::vector<GroupResult> got = sched.probe_round(c.groups, c.policy, c.threshold);
    const std::uint64_t bounded = engine.stats().probes_bounded - bounded0;
    const char* name = probe_policy_name(c.policy);
    EXPECT_GT(bounded, 0u) << name << ": nothing bounded, the check is vacuous";
    ASSERT_EQ(got.size(), c.groups.size());
    int winners = 0;
    for (std::size_t g = 0; g < c.groups.size(); ++g) {
      const GroupResult want = reference_winner(engine, c.groups[g], c.policy, c.threshold);
      ASSERT_EQ(got[g].has_move, want.has_move) << name << " group " << g;
      if (!want.has_move) continue;
      ++winners;
      EXPECT_EQ(got[g].move_index, want.move_index) << name << " group " << g;
      EXPECT_EQ(got[g].probed.critical, want.probed.critical) << name << " group " << g;
      EXPECT_EQ(got[g].probed.sum_po, want.probed.sum_po) << name << " group " << g;
    }
    EXPECT_GT(winners, 0) << name;
  }
}


TEST(BoundedProbe, SelfCheckedFlowsMatchPlainFlows) {
  // End to end under the flow's own placement: self-check replays every
  // bounded probe uncapped and throws unless it lands above its cap, and
  // bounding must not change a single commit. x3 gsg bounds probes whose
  // exact critical delay equals the round baseline, so a bound from a
  // non-final arrival (a level guard of >= instead of >) or without the
  // rounding guard throws here.
  const auto blif_of = [](const Network& net) {
    std::ostringstream os;
    write_blif(net, os, "bounded_probe");
    return os.str();
  };
  FlowOptions base;
  base.verify = false;
  for (const char* name : {"x3", "c499"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    const ModeRun plain = run_mode(prepared, lib035(), OptMode::Gsg, base);
    FlowOptions checked = base;
    checked.opt.self_check = true;
    ModeRun ref;
    ASSERT_NO_THROW(ref = run_mode(prepared, lib035(), OptMode::Gsg, checked)) << name;
    EXPECT_GT(plain.result.probes_bounded, 0u) << name;
    EXPECT_EQ(ref.result.probes_bounded, plain.result.probes_bounded) << name;
    EXPECT_EQ(blif_of(ref.optimized), blif_of(plain.optimized)) << name;
  }
}

}  // namespace
}  // namespace rapids
