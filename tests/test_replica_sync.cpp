// Replica sync: a context resynced in place across commit epochs matches a
// freshly built context byte for byte (network rows and fanout order, free
// stack, placement, every Sta array), its take_stats() windows stay exact,
// the replica staleness predicate (mid-epoch run_full), damping-margin
// adoption, exact sync counters on a hand-counted trace, and the flow-level
// guarantees — threads 1 (never syncs) vs N (syncs every epoch)
// bit-identity on a generated circuit, and swap-cache self-check.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "io/blif_writer.hpp"
#include "parallel/probe_context.hpp"
#include "place/placer.hpp"
#include "sym/gisg.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

std::string blif_of(const Network& net) {
  std::ostringstream os;
  write_blif(net, os, "replica_sync");
  return os.str();
}

/// Assert the two replicas hold byte-identical state: every network row
/// (fanout lists in the same order), the recycled-id free stack, the
/// placement and every Sta array a probe reads (required times are not
/// synced: replicas never read slacks).
void expect_replicas_equal(const ProbeContext& a, const ProbeContext& b) {
  const Network& an = a.replica_net();
  const Network& bn = b.replica_net();
  ASSERT_EQ(an.id_bound(), bn.id_bound());
  for (GateId g = 0; g < an.id_bound(); ++g) {
    ASSERT_EQ(an.is_deleted(g), bn.is_deleted(g)) << "tombstone mismatch at gate " << g;
    if (an.is_deleted(g)) continue;
    EXPECT_EQ(an.type(g), bn.type(g)) << "type mismatch at gate " << g;
    EXPECT_EQ(an.cell(g), bn.cell(g)) << "cell mismatch at gate " << g;
    const auto afi = an.fanins(g);
    const auto bfi = bn.fanins(g);
    EXPECT_TRUE(std::equal(afi.begin(), afi.end(), bfi.begin(), bfi.end()))
        << "fanin mismatch at gate " << g;
    const auto afo = an.fanouts(g);
    const auto bfo = bn.fanouts(g);
    EXPECT_TRUE(std::equal(afo.begin(), afo.end(), bfo.begin(), bfo.end()))
        << "fanout list or order mismatch at gate " << g;
  }
  const auto afree = an.recycling_free_ids();
  const auto bfree = bn.recycling_free_ids();
  EXPECT_TRUE(std::equal(afree.begin(), afree.end(), bfree.begin(), bfree.end()))
      << "free stack mismatch";

  const Placement& ap = a.replica_placement();
  const Placement& bp = b.replica_placement();
  ASSERT_EQ(ap.id_bound(), bp.id_bound());
  for (GateId g = 0; g < ap.id_bound(); ++g) {
    ASSERT_EQ(ap.is_placed(g), bp.is_placed(g)) << "placement mismatch at gate " << g;
    if (ap.is_placed(g)) {
      EXPECT_EQ(ap.at(g).x, bp.at(g).x) << "placement mismatch at gate " << g;
      EXPECT_EQ(ap.at(g).y, bp.at(g).y) << "placement mismatch at gate " << g;
    }
  }

  const Sta& as = a.replica_sta();
  const Sta& bs = b.replica_sta();
  EXPECT_EQ(as.critical_delay(), bs.critical_delay());
  EXPECT_EQ(as.margins_valid(), bs.margins_valid());
  const auto aa = as.arrivals();
  const auto ba = bs.arrivals();
  ASSERT_EQ(aa.size(), ba.size());
  for (GateId g = 0; g < aa.size(); ++g) {
    EXPECT_EQ(aa[g].rise, ba[g].rise) << "arrival mismatch at gate " << g;
    EXPECT_EQ(aa[g].fall, ba[g].fall) << "arrival mismatch at gate " << g;
    EXPECT_EQ(as.damping_ceiling(g).rise, bs.damping_ceiling(g).rise)
        << "ceiling mismatch at gate " << g;
    EXPECT_EQ(as.damping_ceiling(g).fall, bs.damping_ceiling(g).fall)
        << "ceiling mismatch at gate " << g;
    EXPECT_EQ(as.damping_tail(g).rise, bs.damping_tail(g).rise)
        << "tail mismatch at gate " << g;
    EXPECT_EQ(as.damping_tail(g).fall, bs.damping_tail(g).fall)
        << "tail mismatch at gate " << g;
    const StarNet& astar = as.star(g);
    const StarNet& bstar = bs.star(g);
    EXPECT_EQ(astar.driver, bstar.driver) << "star net mismatch at gate " << g;
    EXPECT_EQ(astar.stem_res, bstar.stem_res) << "star net mismatch at gate " << g;
    EXPECT_EQ(astar.stem_cap, bstar.stem_cap) << "star net mismatch at gate " << g;
    EXPECT_EQ(astar.wire_cap, bstar.wire_cap) << "star net mismatch at gate " << g;
    EXPECT_EQ(astar.pin_cap, bstar.pin_cap) << "star net mismatch at gate " << g;
    ASSERT_EQ(astar.branches.size(), bstar.branches.size())
        << "star net mismatch at gate " << g;
    for (std::size_t i = 0; i < astar.branches.size(); ++i) {
      const StarBranch& x = astar.branches[i];
      const StarBranch& y = bstar.branches[i];
      EXPECT_TRUE(x.pin == y.pin && x.pin_cap == y.pin_cap && x.res == y.res &&
                  x.cap == y.cap && x.wire_delay == y.wire_delay)
          << "star branch mismatch at gate " << g << " branch " << i;
    }
  }
  const auto apd = as.pin_delays();
  const auto bpd = bs.pin_delays();
  EXPECT_TRUE(std::equal(apd.begin(), apd.end(), bpd.begin(), bpd.end()))
      << "pin delay cache mismatch";
  const auto alv = as.levels();
  const auto blv = bs.levels();
  EXPECT_TRUE(std::equal(alv.begin(), alv.end(), blv.begin(), blv.end()))
      << "level mismatch";
}

/// Assert `ctx` matches a fresh context synced once to `live` now.
void expect_matches_fresh_context(const ProbeContext& ctx, RewireEngine& live) {
  ProbeContext fresh(lib035());
  fresh.sync(live);
  EXPECT_EQ(fresh.take_sync_stats().full_syncs, 1u);
  expect_replicas_equal(ctx, fresh);
}

struct LiveFixture {
  Network net;
  Placement pl;
  Sta sta;
  RewireEngine engine;

  explicit LiveFixture(std::uint64_t seed)
      : net(testing::mapped(testing::random_mapped_network(seed))),
        pl(make_placement(net)),
        sta(net, lib035(), pl),
        engine(net, pl, lib035(), sta) {}

 private:
  Placement make_placement(const Network& n) {
    PlacerOptions popt;
    popt.effort = 1.0;
    popt.num_temps = 4;
    return place(n, lib035(), popt);
  }
};

TEST(ReplicaSync, InPlaceResyncMatchesFreshContextAcrossEpochs) {
  LiveFixture f(4242);

  ProbeContext ctx(lib035());
  f.engine.refresh_timing_margins();
  ctx.sync(f.engine);
  expect_matches_fresh_context(ctx, f.engine);

  // Each epoch: probe on the replica (probes leave fanout lists in a
  // history-dependent order and grow the Sta's counters), commit on the
  // live engine, refresh its margins and resync in place. The replica must
  // then equal a freshly built one, and its probe window must hold exactly
  // the probes run since the last harvest.
  int commits = 0;
  std::uint64_t probes_run = 0;
  for (int round = 0; round < 16 && commits < 8; ++round) {
    const std::vector<SwapCandidate> cands =
        enumerate_all_swaps(f.engine.partition(), f.net);
    if (cands.empty()) break;
    const std::size_t n = std::min<std::size_t>(cands.size(), 5);
    for (std::size_t i = 0; i < n; ++i) {
      ctx.engine().probe_with(ctx.scratch(), EngineMove::swap(cands[i]));
    }
    EXPECT_EQ(ctx.take_stats().probes, n) << "epoch " << commits;
    probes_run += n;
    f.engine.commit(EngineMove::swap(cands[static_cast<std::size_t>(commits) %
                                           cands.size()]));
    ++commits;
    f.engine.refresh_timing_margins();
    f.sta.refresh_required();
    ctx.sync(f.engine);
    ASSERT_TRUE(ctx.in_sync_with(f.engine));
    // The sync adopts the live tails but not the required times: a replica
    // reads no slack, so its slacks stay stale however fresh the source's.
    EXPECT_THROW((void)ctx.replica_sta().slack(f.net.primary_outputs().front()),
                 InternalError);
    for (GateId g = 0; g < f.net.id_bound(); ++g) {
      EXPECT_EQ(ctx.replica_sta().damping_tail(g).rise, f.sta.damping_tail(g).rise);
      EXPECT_EQ(ctx.replica_sta().damping_tail(g).fall, f.sta.damping_tail(g).fall);
    }
    // Nothing probed since the harvest: the resync must not re-harvest.
    EXPECT_EQ(ctx.take_stats().probes, 0u) << "epoch " << commits;
    expect_matches_fresh_context(ctx, f.engine);
    EXPECT_EQ(blif_of(ctx.replica_net()), blif_of(f.net));
  }
  ASSERT_GE(commits, 3) << "fixture produced too few committable swaps";
  EXPECT_EQ(ctx.engine().stats().probes, probes_run);

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.syncs, static_cast<std::uint64_t>(commits) + 1);
  EXPECT_EQ(s.full_syncs, static_cast<std::uint64_t>(commits) + 1);
  EXPECT_GT(s.bytes_full, 0u);
}

// --- replica staleness predicate ----------------------------------------------

TEST(ProbeContextSync, RunFullInsideEpochBreaksInSyncWith) {
  // An out-of-band run_full rebuilds the live timing state WITHOUT
  // advancing the commit epoch. A replica synced before it passes a bare
  // epoch check but holds pre-restart arrivals, so the state version must
  // be part of the check.
  LiveFixture f(90125);
  ProbeContext ctx(lib035());
  ctx.sync(f.engine);
  EXPECT_TRUE(ctx.in_sync_with(f.engine));

  const std::uint64_t epoch = f.engine.epoch();
  f.sta.run_full();
  EXPECT_EQ(f.engine.epoch(), epoch);        // the epoch alone says "fresh"
  EXPECT_FALSE(ctx.in_sync_with(f.engine));  // the state version says stale

  ctx.sync(f.engine);  // same epoch, new state version: copies again
  EXPECT_TRUE(ctx.in_sync_with(f.engine));
  EXPECT_EQ(blif_of(ctx.replica_net()), blif_of(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
}

// --- damping margins ---------------------------------------------------------

/// Assert the replica holds the live engine's damping margins bit for bit
/// without having refreshed any of its own.
void expect_margins_adopted(const ProbeContext& ctx, const Sta& live) {
  const Sta& replica = ctx.replica_sta();
  ASSERT_TRUE(live.margins_valid());
  EXPECT_TRUE(replica.margins_valid());
  EXPECT_EQ(replica.margin_refreshes(), 0u);
  ASSERT_EQ(replica.arrivals().size(), live.arrivals().size());
  for (GateId g = 0; g < live.arrivals().size(); ++g) {
    EXPECT_EQ(replica.damping_ceiling(g).rise, live.damping_ceiling(g).rise)
        << "ceiling mismatch at gate " << g;
    EXPECT_EQ(replica.damping_ceiling(g).fall, live.damping_ceiling(g).fall)
        << "ceiling mismatch at gate " << g;
  }
}

TEST(ProbeContextSync, ReplicaAdoptsLiveDampingMarginsOnBothSyncPaths) {
  LiveFixture f(4242);
  ProbeContext ctx(lib035());
  f.engine.refresh_timing_margins();
  ctx.sync(f.engine);  // the first sync builds the replica
  expect_margins_adopted(ctx, f.sta);

  const std::vector<SwapCandidate> cands =
      enumerate_all_swaps(f.engine.partition(), f.net);
  ASSERT_FALSE(cands.empty());
  f.engine.commit(EngineMove::swap(cands[0]));
  EXPECT_FALSE(f.sta.margins_valid());
  f.engine.refresh_timing_margins();
  ctx.sync(f.engine);  // later syncs copy into it in place
  expect_margins_adopted(ctx, f.sta);

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.full_syncs, 2u);
}

// --- exact replica-sync counters ---------------------------------------------

TEST(ProbeContextSync, SyncCountersAreExactOnHandCountedTrace) {
  // Every counter in ReplicaSyncStats is checked against a hand-counted
  // trace: full_syncs counts exactly the syncs that copied state (epoch or
  // Sta state version advanced). Same-state repeat calls are no-ops and
  // must not inflate it — the metrics-json contract.
  LiveFixture f(4242);
  ProbeContext ctx(lib035());

  const auto commit_some = [&](int want) {
    int done = 0;
    for (int round = 0; round < 8 && done < want; ++round) {
      const std::vector<SwapCandidate> cands =
          enumerate_all_swaps(f.engine.partition(), f.net);
      if (cands.empty()) break;
      f.engine.commit(EngineMove::swap(
          cands[static_cast<std::size_t>(done) % cands.size()]));
      ++done;
    }
    return done;
  };

  ctx.sync(f.engine);  // full #1 (builds the replica)

  ASSERT_GE(commit_some(2), 1);
  ctx.sync(f.engine);  // full #2
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing

  ASSERT_GE(commit_some(3), 1);
  ctx.sync(f.engine);  // full #3

  f.sta.run_full();    // out-of-band: new state version, same epoch
  ctx.sync(f.engine);  // full #4

  ASSERT_GE(commit_some(1), 1);
  ctx.sync(f.engine);  // full #5

  f.engine.invalidate_partition();  // no state change for a replica
  (void)f.engine.partition();
  ctx.sync(f.engine);  // same epoch and version: no-op

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.syncs, 8u);
  EXPECT_EQ(s.full_syncs, 5u);
  EXPECT_GT(s.bytes_full, 0u);

  // And the replica is still bit-exact after the whole obstacle course.
  EXPECT_EQ(blif_of(ctx.replica_net()), blif_of(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
}

// --- flow level ---------------------------------------------------------------

TEST(DeltaSyncFlowSlow, ThreadCountsBitIdenticalOnGeneratedCircuit) {
  // The headline determinism contract, exercised on a generated circuit
  // large enough that epochs recycle gate ids (gsg adds and removes
  // inverters): threads 1 vs 4, byte-identical BLIF.
  LargeCircuitOptions lopt;
  lopt.target_gates = 1200;
  lopt.seed = 3;
  lopt.num_inputs = 64;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen1200", src, lib035(), base);

  FlowOptions serial = base;
  serial.opt.threads = 1;
  FlowOptions parallel = base;
  parallel.opt.threads = 4;
  const ModeRun one = run_mode(prepared, lib035(), OptMode::Gsg, serial);
  const ModeRun four = run_mode(prepared, lib035(), OptMode::Gsg, parallel);
  EXPECT_EQ(one.result.final_delay, four.result.final_delay);
  EXPECT_EQ(one.result.swaps_committed, four.result.swaps_committed);
  EXPECT_EQ(blif_of(one.optimized), blif_of(four.optimized));
  // threads=1 probes the live engine and never syncs; threads=4 syncs its
  // replicas. The delta-sync fields stay zero (kept for perfbench only).
  EXPECT_EQ(one.result.replica_full_syncs, 0u);
  EXPECT_GT(four.result.replica_full_syncs, 0u);
  EXPECT_EQ(four.result.replica_delta_syncs + four.result.replica_delta_commits +
                four.result.replica_sync_bytes_delta,
            0u);
}

TEST(DeltaSyncFlowSlow, PruneCacheOnOffProduceIdenticalNetlists) {
  // Self-check re-enumerates every swap list the per-slot cache serves and
  // throws on any difference; the re-enumeration must not change the
  // netlist or the optimizer's own work either. Lists truncated at the cap
  // are never cached, so a hot truncated slot is enumerated every round.
  const Network src = testing::random_mapped_network(55);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 3;
  // A low cap makes most supergates' lists arrival-gap pruned.
  base.opt.max_swaps_per_sg = 4;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("prune", src, lib035(), base);

  FlowOptions checked = base;
  checked.opt.self_check = true;
  const ModeRun plain = run_mode(prepared, lib035(), OptMode::GsgPlusGS, base);
  ModeRun on;
  ASSERT_NO_THROW(on = run_mode(prepared, lib035(), OptMode::GsgPlusGS, checked));
  EXPECT_GT(plain.result.candidates_enumerated, 0u);
  EXPECT_EQ(on.result.candidates_enumerated, plain.result.candidates_enumerated);
  // Self-check also probes every move slack gating skips; those reference
  // probes are not the optimizer's and stay out of `probes`.
  EXPECT_EQ(on.result.probes, plain.result.probes);
  EXPECT_EQ(on.result.final_delay, plain.result.final_delay);
  EXPECT_EQ(blif_of(on.optimized), blif_of(plain.optimized));
}

}  // namespace
}  // namespace rapids
