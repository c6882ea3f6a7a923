// O(dirty) replica delta sync: differential equality against the full
// clone path (network bytes, STA state, placement — a fresh context's first
// sync is always a full clone, so it is the reference), multi-epoch
// catch-up through the journal, fallback after out-of-band run_full, the
// replica staleness predicate (mid-epoch run_full), damping-margin adoption,
// exact sync counters on a hand-counted trace, and the flow-level
// guarantees — threads 1 (never syncs) vs N (delta syncs) bit-identity on
// generated circuits, and swap-cache self-check.
#include <gtest/gtest.h>

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
  write_blif(net, os, "delta_sync");
  return os.str();
}

/// Assert the two replicas hold byte-identical probe-visible state.
void expect_replicas_equal(const ProbeContext& delta, const ProbeContext& clone) {
  EXPECT_EQ(blif_of(delta.replica_net()), blif_of(clone.replica_net()));
  EXPECT_EQ(delta.replica_sta().critical_delay(), clone.replica_sta().critical_delay());
  const auto da = delta.replica_sta().arrivals();
  const auto ca = clone.replica_sta().arrivals();
  ASSERT_EQ(da.size(), ca.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].rise, ca[i].rise) << "arrival mismatch at gate " << i;
    EXPECT_EQ(da[i].fall, ca[i].fall) << "arrival mismatch at gate " << i;
  }
  // Committed swaps place the inverters they insert: the delta path copies
  // placement rows for touched gates only.
  const Placement& dp = delta.replica_placement();
  const Placement& cp = clone.replica_placement();
  ASSERT_EQ(dp.id_bound(), cp.id_bound());
  for (GateId g = 0; g < dp.id_bound(); ++g) {
    ASSERT_EQ(dp.is_placed(g), cp.is_placed(g)) << "placement mismatch at gate " << g;
    if (dp.is_placed(g)) {
      EXPECT_EQ(dp.at(g).x, cp.at(g).x) << "placement mismatch at gate " << g;
      EXPECT_EQ(dp.at(g).y, cp.at(g).y) << "placement mismatch at gate " << g;
    }
  }
}

/// Assert `ctx` matches the clone-sync reference: a fresh context synced
/// to `live` now, whose first sync always takes the full clone path.
void expect_matches_fresh_clone(const ProbeContext& ctx, RewireEngine& live) {
  ProbeContext fresh(lib035());
  fresh.sync(live);
  const ReplicaSyncStats s = fresh.take_sync_stats();
  EXPECT_EQ(s.full_syncs, 1u);
  EXPECT_EQ(s.delta_syncs, 0u);
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

TEST(DeltaSync, DeltaSyncedReplicaMatchesCloneSyncedAcrossEpochs) {
  LiveFixture f(4242);

  ProbeContext delta_ctx(lib035());
  delta_ctx.sync(f.engine);
  expect_matches_fresh_clone(delta_ctx, f.engine);

  // Commit a stream of real swaps on the live engine; after every epoch
  // the replica re-syncs and must agree byte for byte with a fresh clone
  // — and match the live state (delta path correctness, not just mutual
  // consistency).
  int commits = 0;
  for (int round = 0; round < 16 && commits < 10; ++round) {
    const std::vector<SwapCandidate> cands =
        enumerate_all_swaps(f.engine.partition(), f.net);
    if (cands.empty()) break;
    f.engine.commit(EngineMove::swap(cands[static_cast<std::size_t>(commits) %
                                           cands.size()]));
    ++commits;
    delta_ctx.sync(f.engine);
    ASSERT_TRUE(delta_ctx.in_sync_with(f.engine));
    expect_matches_fresh_clone(delta_ctx, f.engine);
    EXPECT_EQ(blif_of(delta_ctx.replica_net()), blif_of(f.net));
    EXPECT_EQ(delta_ctx.replica_sta().critical_delay(), f.sta.critical_delay());
  }
  ASSERT_GE(commits, 3) << "fixture produced too few committable swaps";

  // The delta path must actually have been exercised (first sync is full,
  // the rest ride the journal).
  const ReplicaSyncStats ds = delta_ctx.take_sync_stats();
  EXPECT_GE(ds.delta_syncs, static_cast<std::uint64_t>(commits));
  EXPECT_EQ(ds.full_syncs, 1u);
  EXPECT_GT(ds.bytes_delta, 0u);
  // Every delta sync copies the level and margin arrays whole, sized at
  // most to the live arrays' final size.
  EXPECT_GT(ds.bytes_margins, 0u);
  EXPECT_LE(ds.bytes_margins,
            ds.delta_syncs * f.sta.arrivals().size() * (sizeof(int) + sizeof(RiseFall)));
}

TEST(DeltaSync, LaggingReplicaCatchesUpOverMultipleEpochs) {
  LiveFixture f(777);
  ProbeContext lag_ctx(lib035());
  lag_ctx.sync(f.engine);
  int commits = 0;
  for (int round = 0; round < 12 && commits < 6; ++round) {
    const std::vector<SwapCandidate> cands =
        enumerate_all_swaps(f.engine.partition(), f.net);
    if (cands.empty()) break;
    f.engine.commit(EngineMove::swap(cands[0]));
    ++commits;
    // The lagging replica only syncs every third epoch: its delta spans
    // several journal marks at once.
    if (commits % 3 == 0) {
      lag_ctx.sync(f.engine);
      ASSERT_TRUE(lag_ctx.in_sync_with(f.engine));
      expect_matches_fresh_clone(lag_ctx, f.engine);
    }
  }
  ASSERT_GE(commits, 3);
}

TEST(DeltaSync, FallsBackToFullSyncAfterOutOfBandRunFull) {
  LiveFixture f(90125);
  ProbeContext ctx(lib035());
  ctx.sync(f.engine);

  const std::vector<SwapCandidate> cands =
      enumerate_all_swaps(f.engine.partition(), f.net);
  ASSERT_FALSE(cands.empty());
  f.engine.commit(EngineMove::swap(cands[0]));
  // An out-of-band full STA pass bumps the state version: the journal's
  // incremental slices no longer describe the replica's baseline, so the
  // next sync must take the full path and still land bit-exact.
  f.sta.run_full();
  ctx.sync(f.engine);
  ASSERT_TRUE(ctx.in_sync_with(f.engine));
  EXPECT_EQ(blif_of(ctx.replica_net()), blif_of(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
  const ReplicaSyncStats st = ctx.take_sync_stats();
  EXPECT_GE(st.full_syncs, 2u);  // initial sync + post-run_full fallback
}

// --- replica staleness predicate ----------------------------------------------

TEST(ProbeContextSync, RunFullInsideEpochBreaksInSyncWith) {
  // Regression: an out-of-band run_full (journal restart) rebuilds the live
  // timing state WITHOUT advancing the commit epoch. A replica adopted
  // before it passes the bare epoch check but holds pre-restart arrivals —
  // the trap the scheduler's old skip-sync fast path fell into.
  LiveFixture f(90125);
  ProbeContext ctx(lib035());
  ctx.sync(f.engine);
  EXPECT_TRUE(ctx.in_sync_with(f.engine));

  const std::uint64_t epoch = f.engine.epoch();
  f.sta.run_full();
  EXPECT_EQ(f.engine.epoch(), epoch);        // the epoch alone says "fresh"
  EXPECT_FALSE(ctx.in_sync_with(f.engine));  // the state version says stale

  ctx.sync(f.engine);  // must fall back to the full path and land bit-exact
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
  ctx.sync(f.engine);  // full: the first sync clones
  expect_margins_adopted(ctx, f.sta);

  const std::vector<SwapCandidate> cands =
      enumerate_all_swaps(f.engine.partition(), f.net);
  ASSERT_FALSE(cands.empty());
  f.engine.commit(EngineMove::swap(cands[0]));
  EXPECT_FALSE(f.sta.margins_valid());
  f.engine.refresh_timing_margins();
  ctx.sync(f.engine);  // delta: replays the commit's journal
  expect_margins_adopted(ctx, f.sta);

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.full_syncs, 1u);
  EXPECT_EQ(s.delta_syncs, 1u);
}

// --- exact replica-sync counters ---------------------------------------------

TEST(ProbeContextSync, SyncCountersAreExactOnHandCountedTrace) {
  // Every counter in ReplicaSyncStats is checked against a hand-counted
  // trace: delta_syncs counts exactly the epoch-advancing journal replays,
  // delta_commits exactly the commit epochs those replays spanned, and
  // full_syncs exactly the clone-path syncs. Same-epoch repeat calls are
  // no-ops and must not inflate anything — the metrics-json contract.
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

  ctx.sync(f.engine);  // full #1 (initial clone)

  const int span1 = commit_some(2);
  ASSERT_GE(span1, 1);
  ctx.sync(f.engine);  // delta #1, spans span1 commits
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing
  ctx.sync(f.engine);  // same-epoch repeat: no-op, counts nothing

  const int span2 = commit_some(3);
  ASSERT_GE(span2, 1);
  ctx.sync(f.engine);  // delta #2, spans span2 commits

  f.sta.run_full();    // out-of-band: journal restart for this replica
  ctx.sync(f.engine);  // full #2 (state-version fallback, same epoch)

  const int span3 = commit_some(1);
  ASSERT_GE(span3, 1);
  ctx.sync(f.engine);  // delta #3, spans span3 commits

  f.engine.invalidate_partition();  // kills the sync journal too
  (void)f.engine.partition();
  ctx.sync(f.engine);  // full #3 (journal unavailable, same epoch)

  const ReplicaSyncStats s = ctx.take_sync_stats();
  EXPECT_EQ(s.syncs, 8u);
  EXPECT_EQ(s.full_syncs, 3u);
  EXPECT_EQ(s.delta_syncs, 3u);
  EXPECT_EQ(s.delta_commits,
            static_cast<std::uint64_t>(span1 + span2 + span3));
  EXPECT_GT(s.bytes_full, 0u);
  EXPECT_GT(s.bytes_delta, 0u);

  // And the replica is still bit-exact after the whole obstacle course.
  EXPECT_EQ(blif_of(ctx.replica_net()), blif_of(f.net));
  EXPECT_EQ(ctx.replica_sta().critical_delay(), f.sta.critical_delay());
}

// --- flow level ---------------------------------------------------------------

TEST(DeltaSyncFlowSlow, ThreadCountsBitIdenticalOnGeneratedCircuit) {
  // The headline determinism contract, exercised on a generated circuit
  // large enough that epochs recycle gate ids (gsg adds and removes
  // inverters): threads 1 vs 4, delta sync on, byte-identical BLIF.
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
  // threads=1 probes the live engine and never syncs; threads=4 must have
  // ridden the delta path.
  EXPECT_EQ(one.result.replica_delta_syncs + one.result.replica_full_syncs, 0u);
  EXPECT_GT(four.result.replica_delta_syncs, 0u);
}

TEST(DeltaSyncFlowSlow, DeltaOnOffProduceIdenticalNetlists) {
  // threads=1 probes the live engine and never syncs, so it is the
  // flow-level reference for replica sync: threads=4 must ride the delta
  // path and still commit the identical netlist.
  LargeCircuitOptions lopt;
  lopt.target_gates = 800;
  lopt.seed = 11;
  lopt.num_inputs = 48;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen800", src, lib035(), base);

  FlowOptions serial = base;
  serial.opt.threads = 1;
  FlowOptions parallel = base;
  parallel.opt.threads = 4;
  const ModeRun one = run_mode(prepared, lib035(), OptMode::Gsg, serial);
  const ModeRun four = run_mode(prepared, lib035(), OptMode::Gsg, parallel);
  EXPECT_EQ(one.result.final_delay, four.result.final_delay);
  EXPECT_EQ(blif_of(one.optimized), blif_of(four.optimized));
  EXPECT_EQ(one.result.replica_delta_syncs + one.result.replica_full_syncs, 0u);
  EXPECT_GT(four.result.replica_delta_syncs, 0u);
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
