// Parallel rewiring scheduler: weight-balanced sharding, thread pool, RNG
// substreams, sharded stats, replica probe equivalence, and the headline
// guarantee — `threads N` produces bit-identical netlists, the same
// provenance stream and the same work and arbitration counters as
// `threads 1`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "io/blif_writer.hpp"
#include "parallel/probe_context.hpp"
#include "parallel/scheduler.hpp"
#include "place/placer.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "test_helpers.hpp"
#include "timing/sta.hpp"
#include "trace/provenance.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "verify/equivalence.hpp"

namespace rapids {
namespace {

using rapids::testing::lib035;

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h = 0;
  for (int round = 0; round < 3; ++round) {
    pool.run([&](int w) { ++hits[static_cast<std::size_t>(w)]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  std::thread::id id;
  pool.run([&](int) { id = std::this_thread::get_id(); });
  EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run([&](int w) {
                 if (w == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool survives a throwing round.
  std::atomic<int> ok{0};
  pool.run([&](int) { ++ok; });
  EXPECT_EQ(ok.load(), 3);
}

// --- rng substreams ----------------------------------------------------------

TEST(RngSubstream, DeterministicAndDecorrelated) {
  Rng a0 = Rng::substream(42, 0);
  Rng a0_again = Rng::substream(42, 0);
  EXPECT_EQ(a0.next_u64(), a0_again.next_u64());
  // Different stream indices, seeds, and the base generator all diverge.
  EXPECT_NE(Rng::substream(42, 0).next_u64(), Rng::substream(42, 1).next_u64());
  EXPECT_NE(Rng::substream(42, 0).next_u64(), Rng(42).next_u64());
  EXPECT_NE(Rng::substream(43, 0).next_u64(), Rng::substream(42, 0).next_u64());
}

// --- sharded stats -----------------------------------------------------------

TEST(ShardedStats, MergesLikeSingleAccumulator) {
  RunningStats serial;
  ShardedStats sharded(4);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0 - 3.0;
    serial.add(x);
    sharded.shard(i % 4).add(x);
  }
  const RunningStats merged = sharded.merged();
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), serial.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), serial.min());
  EXPECT_DOUBLE_EQ(merged.max(), serial.max());
}

// --- weight-balanced sharding ------------------------------------------------

std::vector<std::uint64_t> shard_loads(const std::vector<int>& shard,
                                       const std::vector<std::uint64_t>& weights,
                                       int num_shards) {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_shards), 0);
  for (std::size_t g = 0; g < shard.size(); ++g) {
    load[static_cast<std::size_t>(shard[g])] += weights[g];
  }
  return load;
}

TEST(ShardAssignment, OversizedComponentIsSplitForLoadBalance) {
  // 40 unit-weight groups over 4 shards: dealing each onto the
  // least-weighted shard splits them 10/10/10/10 instead of starving the
  // pool.
  const std::vector<std::uint64_t> weights(40, 1);
  const std::vector<int> shard = assign_shards(weights, 4);
  for (const std::uint64_t l : shard_loads(shard, weights, 4)) EXPECT_EQ(l, 10u);
  EXPECT_EQ(shard, assign_shards(weights, 4));
  // One shard degenerates to all-zero.
  for (const int s : assign_shards(weights, 1)) EXPECT_EQ(s, 0);
}

TEST(ShardAssignment, WeightedSplitBalancesCandidateWeightNotGroupCount) {
  // Group 0 carries nearly all the probe weight. Count-based dealing would
  // put 4 groups — including the heavy one — on one shard (103 vs 4
  // probes, the c1908 skew in miniature). Weight-based dealing isolates
  // the heavy group.
  const std::vector<std::uint64_t> weights = {100, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<int> shard = assign_shards(weights, 2);
  for (int g = 2; g < 8; ++g) EXPECT_EQ(shard[static_cast<std::size_t>(g)], shard[1]);
  EXPECT_NE(shard[0], shard[1]);
  const std::vector<std::uint64_t> load = shard_loads(shard, weights, 2);
  EXPECT_EQ(std::max(load[0], load[1]), 100u);  // heavy group alone, not 103
  // Deterministic.
  EXPECT_EQ(shard, assign_shards(weights, 2));
}

TEST(ShardAssignment, WeightedAtomicComponentsLandOnLeastWeightedShard) {
  // One heavy group first. Dealing in group-index order onto the
  // least-weighted shard must pack the three light ones opposite the heavy
  // one instead of alternating by count; ties go to the lowest shard.
  const std::vector<std::uint64_t> weights = {50, 1, 1, 1};
  const std::vector<int> shard = assign_shards(weights, 2);
  EXPECT_EQ(shard, (std::vector<int>{0, 1, 1, 1}));
}

// --- replica probing ---------------------------------------------------------

TEST(ProbeContext, ReplicaProbesMatchLiveEngine) {
  Network net = testing::mapped(testing::random_mapped_network(99));
  PlacerOptions popt;
  popt.effort = 1.0;
  popt.num_temps = 4;
  Placement pl = place(net, lib035(), popt);
  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);

  const std::vector<SwapCandidate> swaps =
      enumerate_all_swaps(engine.partition(), net);
  ASSERT_FALSE(swaps.empty());

  ProbeContext ctx(lib035());
  ctx.sync(engine);
  ASSERT_TRUE(ctx.in_sync_with(engine));

  // State adoption is byte-exact: every arrival matches bit for bit.
  const auto live_arr = sta.arrivals();
  const auto replica_arr = ctx.engine().sta().arrivals();
  ASSERT_EQ(live_arr.size(), replica_arr.size());
  for (std::size_t i = 0; i < live_arr.size(); ++i) {
    EXPECT_EQ(live_arr[i].rise, replica_arr[i].rise);
    EXPECT_EQ(live_arr[i].fall, replica_arr[i].fall);
  }

  for (const SwapCandidate& c : swaps) {
    const EngineMove m = EngineMove::swap(c);
    const EngineObjective live = engine.probe(m);
    const EngineObjective replica = ctx.engine().probe_with(ctx.scratch(), m);
    // Bit-identical, not just close: replicas adopt the live timing state
    // byte-for-byte and probes are pure functions of state.
    EXPECT_EQ(live.critical, replica.critical);
    EXPECT_EQ(live.sum_po, replica.sum_po);
  }
  EXPECT_GT(ctx.take_stats().probes, 0u);
  EXPECT_EQ(ctx.take_stats().probes, 0u);
}

// --- scheduler ---------------------------------------------------------------

std::string blif_of(const Network& net) {
  std::ostringstream os;
  write_blif(net, os, "determinism");
  return os.str();
}

TEST(SchedulerDeterminism, ThreadCountsProduceIdenticalNetlists) {
  // The headline guarantee on real circuits, end to end through the flow:
  // identical BLIF output and final delay for 1 vs 8 workers.
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  for (const char* name : {"alu2", "c432", "c499"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    FlowOptions serial = base;
    serial.opt.threads = 1;
    FlowOptions parallel = base;
    parallel.opt.threads = 8;
    const ModeRun one = run_mode(prepared, lib035(), OptMode::GsgPlusGS, serial);
    const ModeRun eight = run_mode(prepared, lib035(), OptMode::GsgPlusGS, parallel);
    EXPECT_TRUE(one.verified) << name;
    EXPECT_TRUE(eight.verified) << name;
    EXPECT_EQ(one.result.final_delay, eight.result.final_delay) << name;
    EXPECT_EQ(one.result.swaps_committed, eight.result.swaps_committed) << name;
    EXPECT_EQ(one.result.resizes_committed, eight.result.resizes_committed) << name;
    EXPECT_EQ(blif_of(one.optimized), blif_of(eight.optimized)) << name;
  }
}

TEST(SchedulerDeterminism, RepeatedRunsAreIdentical) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  const PreparedCircuit prepared = prepare_benchmark("alu2", lib035(), base);
  FlowOptions opt = base;
  opt.opt.threads = 3;
  opt.opt.max_iterations = 2;
  const ModeRun r1 = run_mode(prepared, lib035(), OptMode::Gsg, opt);
  const ModeRun r2 = run_mode(prepared, lib035(), OptMode::Gsg, opt);
  EXPECT_EQ(blif_of(r1.optimized), blif_of(r2.optimized));
  EXPECT_EQ(r1.result.final_delay, r2.result.final_delay);
}

// --- thread-count determinism matrix ------------------------------------------

struct ThreadRun {
  std::string blif;
  std::vector<std::pair<std::uint64_t, double>> commits;  // (move_id, gain)
  std::vector<std::tuple<ProvenanceStage, std::uint64_t, double>> records;
  int chains = 0;
  OptimizerResult result;
};

ThreadRun run_at_threads(const PreparedCircuit& prepared, const FlowOptions& base,
                         int threads) {
  FlowOptions o = base;
  o.opt.threads = threads;
  ProvenanceLog::instance().enable();  // enable() resets the record stream
  const ModeRun run = run_mode(prepared, lib035(), OptMode::GsgPlusGS, o);
  ThreadRun out;
  std::string diag;
  out.chains = ProvenanceLog::instance().resolve_committed_chains(&diag);
  for (const ProvenanceRecord& rec : ProvenanceLog::instance().records()) {
    out.records.emplace_back(rec.stage, rec.move_id, rec.gain);
    if (rec.stage == ProvenanceStage::Committed) {
      out.commits.emplace_back(rec.move_id, rec.gain);
    }
  }
  ProvenanceLog::instance().disable();
  out.blif = blif_of(run.optimized);
  out.result = run.result;
  return out;
}

/// threads {2,4} against threads 1: byte-identical netlist, identical
/// provenance stream, and identical work and arbitration counters.
void expect_thread_count_identity(const char* name, const PreparedCircuit& prepared,
                                  const FlowOptions& base) {
  const ThreadRun ref = run_at_threads(prepared, base, 1);
  ASSERT_FALSE(ref.blif.empty()) << name;
  for (const int threads : {2, 4}) {
    const ThreadRun r = run_at_threads(prepared, base, threads);
    const std::string cfg = std::string(name) + " threads=" + std::to_string(threads);
    // Byte-identical netlist...
    EXPECT_EQ(ref.blif, r.blif) << cfg;
    // ...and an identical committed-move provenance chain: same move
    // coordinates (round/group/move), same live gains, same order.
    EXPECT_EQ(ref.commits, r.commits) << cfg;
    EXPECT_EQ(ref.chains, r.chains) << cfg;
    // The whole decision stream, not only its commits: conflicts,
    // re-validation rejects and fallbacks are decided on the serial
    // arbitration path from worker-independent probe results.
    EXPECT_EQ(ref.records, r.records) << cfg;
    EXPECT_EQ(ref.result.final_delay, r.result.final_delay) << cfg;
    // Every round is a barrier and each group's probes are a pure function
    // of the live state, so the work counters are thread-invariant too.
    // That includes the propagation shape: replicas adopt the live
    // engine's levels and margins, so both walk the same levels, and the
    // worklist's pop order follows fanout order, which the engine keeps
    // sorted on the live network and every replica copy alike. Only the
    // live engine refreshes margins.
    EXPECT_EQ(ref.result.probes, r.result.probes) << cfg;
    EXPECT_EQ(ref.result.gates_propagated, r.result.gates_propagated) << cfg;
    EXPECT_EQ(ref.result.damp_cutoffs, r.result.damp_cutoffs) << cfg;
    EXPECT_EQ(ref.result.damp_fallbacks, r.result.damp_fallbacks) << cfg;
    EXPECT_EQ(ref.result.margin_refreshes, r.result.margin_refreshes) << cfg;
    EXPECT_EQ(ref.result.probes_bounded, r.result.probes_bounded) << cfg;
    EXPECT_EQ(ref.result.candidates_enumerated, r.result.candidates_enumerated) << cfg;
    EXPECT_EQ(ref.result.swaps_committed, r.result.swaps_committed) << cfg;
    EXPECT_EQ(ref.result.resizes_committed, r.result.resizes_committed) << cfg;
    EXPECT_EQ(ref.result.sched_accepted, r.result.sched_accepted) << cfg;
    EXPECT_EQ(ref.result.sched_conflicted, r.result.sched_conflicted) << cfg;
    EXPECT_EQ(ref.result.sched_revalidation_rejects,
              r.result.sched_revalidation_rejects)
        << cfg;
  }
}

TEST(SchedulerDeterminism, ThreadCountsIdenticalOnSmallBenchmarks) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  for (const char* name : {"alu2", "c432"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_thread_count_identity(name, prepared, base);
  }
}

TEST(SchedulerDeterminismSlow, ThreadCountsIdenticalOnLargeBenchmarks) {
  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 2;
  base.verify = false;
  for (const char* name : {"c499", "c6288"}) {
    const PreparedCircuit prepared = prepare_benchmark(name, lib035(), base);
    expect_thread_count_identity(name, prepared, base);
  }
}

TEST(SchedulerDeterminismSlow, ThreadCountsIdenticalOnGeneratedCircuit) {
  // A generated circuit large enough that epochs recycle gate ids and the
  // partition is incrementally maintained across many rounds.
  LargeCircuitOptions lopt;
  lopt.target_gates = 10000;
  lopt.seed = 8;
  lopt.num_inputs = 96;
  const Network src = make_large_circuit(lopt);

  FlowOptions base;
  base.placer.effort = 1.0;
  base.placer.num_temps = 4;
  base.opt.max_iterations = 1;
  base.verify = false;
  const PreparedCircuit prepared = prepare_circuit("gen10000", src, lib035(), base);
  expect_thread_count_identity("gen10000", prepared, base);
}

TEST(Scheduler, RoundCommitsImproveOrHold) {
  Network net = testing::mapped(testing::random_mapped_network(123));
  PlacerOptions popt;
  popt.effort = 1.0;
  popt.num_temps = 4;
  Placement pl = place(net, lib035(), popt);
  Sta sta(net, lib035(), pl);
  RewireEngine engine(net, pl, lib035(), sta);
  SchedulerOptions sopt;
  sopt.threads = 4;
  ParallelRewireScheduler sched(engine, sopt);

  std::vector<ProbeGroup> groups;
  const GisgPartition& part = engine.partition();
  for (std::size_t s = 0; s < part.sgs.size(); ++s) {
    if (part.sgs[s].is_trivial()) continue;
    ProbeGroup g;
    for (const SwapCandidate& c :
         enumerate_swaps(part, static_cast<int>(s), net)) {
      g.moves.push_back(EngineMove::swap(c));
    }
    if (!g.moves.empty()) groups.push_back(std::move(g));
  }

  const double before = sta.critical_delay();
  const int committed = sched.run_round(groups, ProbePolicy::MinCritical, 1e-6);
  EXPECT_LE(sta.critical_delay(), before + 1e-9);
  EXPECT_EQ(sched.stats().committed, static_cast<std::uint64_t>(committed));
  EXPECT_GE(sched.stats().worker_probes, sched.stats().accepted);
  EXPECT_GT(sched.stats().rounds, 0u);
}

}  // namespace
}  // namespace rapids
