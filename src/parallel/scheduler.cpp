#include "parallel/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "session/session.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace rapids {

namespace {
// Matches the optimizer's historical tie window: gains closer than this are
// "equal" and the sum-of-arrivals objective breaks the tie.
constexpr double kGainTie = 1e-12;
// Tolerance for "does not degrade the critical delay" (phase B).
constexpr double kCritSlack = 1e-9;
}  // namespace

std::vector<int> assign_shards(std::span<const std::uint64_t> weights,
                               int num_shards) {
  num_shards = std::max(num_shards, 1);
  std::vector<int> shard_of(weights.size(), 0);
  std::vector<std::uint64_t> load(static_cast<std::size_t>(num_shards), 0);
  for (std::size_t g = 0; g < weights.size(); ++g) {
    const int s = static_cast<int>(std::min_element(load.begin(), load.end()) -
                                   load.begin());
    shard_of[g] = s;
    load[static_cast<std::size_t>(s)] += weights[g];
  }
  return shard_of;
}

const char* probe_policy_name(ProbePolicy policy) {
  switch (policy) {
    case ProbePolicy::MinCritical: return "min_critical";
    case ProbePolicy::Relaxation: return "relaxation";
    case ProbePolicy::FirstFit: return "first_fit";
  }
  return "unknown";
}

ParallelRewireScheduler::ParallelRewireScheduler(RewireEngine& engine,
                                                const SchedulerOptions& options)
    : engine_(engine), options_(options),
      session_(options.session != nullptr ? options.session
                                          : &SessionContext::process_default()),
      pool_(session_->acquire_pool(options.threads)),
      probe_stats_(1) {
  // The process-default context lends no pool (its users are uncoordinated
  // — see SessionContext::acquire_pool); own a private one, exactly as
  // before sessions existed. Owned sessions lend their persistent pool so
  // it stays warm across the session's flows.
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(options.threads);
    pool_ = owned_pool_.get();
  }
  probe_stats_ = ShardedStats(pool_->workers());
  options_.threads = pool_->workers();
  contexts_.reserve(static_cast<std::size_t>(pool_->workers()));
  for (int w = 0; w < pool_->workers(); ++w) {
    contexts_.push_back(std::make_unique<ProbeContext>(engine.lib()));
    contexts_.back()->set_session(options_.session);
  }
}

GroupResult ParallelRewireScheduler::probe_group(RewireEngine& eng,
                                                 ProbeScratch& scratch,
                                                 int group_index,
                                                 const ProbeGroup& group,
                                                 ProbePolicy policy, double threshold,
                                                 double base_critical,
                                                 double base_sum) const {
  GroupResult r;
  r.group = group_index;

  switch (policy) {
    case ProbePolicy::MinCritical: {
      double best_gain = 0.0;
      double best_sum_gain = 0.0;
      for (std::size_t i = 0; i < group.moves.size(); ++i) {
        const EngineMove& move = group.moves[i];
        const EngineObjective obj = eng.probe_with(scratch, move);
        ++r.probes;
        const double gain = base_critical - obj.critical;
        const double sum_gain = base_sum - obj.sum_po;
        if (gain > best_gain + kGainTie ||
            (gain > threshold && std::abs(gain - best_gain) <= kGainTie &&
             sum_gain > best_sum_gain)) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          r.probed = obj;
          best_gain = gain;
          best_sum_gain = sum_gain;
        }
      }
      if (best_gain <= threshold) r.has_move = false;
      r.crit_gain = best_gain;
      r.sum_gain = best_sum_gain;
      break;
    }
    case ProbePolicy::Relaxation: {
      double best_sum_gain = threshold;
      for (std::size_t i = 0; i < group.moves.size(); ++i) {
        const EngineMove& move = group.moves[i];
        const EngineObjective obj = eng.probe_with(scratch, move);
        ++r.probes;
        if (obj.critical > base_critical + kCritSlack) continue;
        const double sum_gain = base_sum - obj.sum_po;
        if (sum_gain > best_sum_gain) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          r.probed = obj;
          best_sum_gain = sum_gain;
          r.crit_gain = base_critical - obj.critical;
        }
      }
      r.sum_gain = r.has_move ? best_sum_gain : 0.0;
      break;
    }
    case ProbePolicy::FirstFit: {
      for (std::size_t i = 0; i < group.moves.size(); ++i) {
        const EngineMove& move = group.moves[i];
        const EngineObjective obj = eng.probe_with(scratch, move);
        ++r.probes;
        if (obj.critical <= threshold) {
          r.move = move;
          r.move_index = static_cast<int>(i);
          r.has_move = true;
          r.probed = obj;
          r.crit_gain = base_critical - obj.critical;
          r.sum_gain = base_sum - obj.sum_po;
          break;
        }
      }
      break;
    }
  }
  return r;
}

std::vector<GroupResult> ParallelRewireScheduler::probe_round(
    std::span<const ProbeGroup> groups, ProbePolicy policy, double threshold) {
  std::vector<GroupResult> results(groups.size());
  if (groups.empty()) return results;
  const Timer round_timer;
  ++stats_.rounds;
  TraceSpan round_span(session_->tracer(), "probe", "probe_round");
  round_span.set_arg("groups", static_cast<std::int64_t>(groups.size()));

  // The live engine's damping margins are the caller's to refresh (the
  // optimizer does so while building the round's groups, which reads them):
  // the serial fast path probes the live engine, replicas adopt them when
  // they sync, and arbitration's re-validation probes reuse them until the
  // round's first commit invalidates. Probes are exact either way; stale
  // margins only undamp.

  const double base_critical = engine_.sta().critical_delay();
  const double base_sum = engine_.sta().sum_po_arrival();
  const int workers = pool_->workers();

  if (workers == 1) {
    // Single-worker fast path: probe the live engine directly — probes are
    // pure functions of state (ProbeContext.ReplicaProbesMatchLiveEngine
    // asserts replica and live probes are bit-identical), so this produces
    // the same results as a one-replica round without the clone/sync cost.
    std::uint64_t round_probes = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      results[g] = probe_group(engine_, serial_scratch_, static_cast<int>(g),
                               groups[g], policy, threshold, base_critical,
                               base_sum);
      round_probes += static_cast<std::uint64_t>(results[g].probes);
    }
    stats_.worker_probes += round_probes;
    probe_stats_.shard(0).add(static_cast<double>(round_probes));
    round_span.set_arg2("probes", static_cast<std::int64_t>(round_probes));
    stats_.seconds_probe += round_timer.seconds();
    return results;
  }

  // Balance shards on probe WEIGHT (one replica probe per move), not group
  // count: group sizes are heavily skewed (a wide supergate's swap group
  // next to single-candidate resize groups), and count-balanced shards
  // were measured at 7x worker-probe spread on c1908.
  std::vector<std::uint64_t> weights(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    weights[g] = groups[g].moves.size();
  }
  const std::vector<int> shard_of = assign_shards(weights, workers);
  std::vector<std::vector<int>> shard_groups(static_cast<std::size_t>(workers));
  for (std::size_t g = 0; g < groups.size(); ++g) {
    shard_groups[static_cast<std::size_t>(shard_of[g])].push_back(
        static_cast<int>(g));
  }

  pool_->run([&](int w) {
    // Install this session on the pool thread: a session-lent pool thread
    // has no ambient context, and its thread-local worker id must be this
    // round's index even if the thread served another session's round
    // earlier (SessionScope saves/restores both).
    SessionScope session_scope(*session_, w);
    const std::vector<int>& mine = shard_groups[static_cast<std::size_t>(w)];
    if (mine.empty()) {
      // A starved worker is exactly what the load-distribution metric
      // exists to expose — record the zero.
      probe_stats_.shard(w).add(0.0);
      return;
    }
    // One span per worker shard, landing on that worker's own trace ring.
    TraceSpan shard_span(session_->tracer(), "probe", "probe_shard");
    shard_span.set_arg("groups", static_cast<std::int64_t>(mine.size()));
    ProbeContext& ctx = *contexts_[static_cast<std::size_t>(w)];
    if (!ctx.in_sync_with(engine_)) ctx.sync(engine_);
    std::uint64_t my_probes = 0;
    for (const int g : mine) {
      GroupResult& r = results[static_cast<std::size_t>(g)];
      r = probe_group(ctx.engine(), ctx.scratch(), g,
                      groups[static_cast<std::size_t>(g)], policy, threshold,
                      base_critical, base_sum);
      my_probes += static_cast<std::uint64_t>(r.probes);
    }
    // Worker-owned statistics shard: written here, merged after the
    // pool barrier.
    probe_stats_.shard(w).add(static_cast<double>(my_probes));
    shard_span.set_arg2("probes", static_cast<std::int64_t>(my_probes));
  });

  // Harvest replica probe counters into the live engine's lifetime totals
  // (workers are quiescent past the pool barrier). Replicas are only synced
  // and probed inside this fan-out, so no window is left unharvested once
  // the round returns — the engine and sync totals are exact whenever the
  // caller reads them between rounds.
  stats_.worker_probes += harvest_worker_counters();
  stats_.seconds_probe += round_timer.seconds();
  return results;
}

std::uint64_t ParallelRewireScheduler::harvest_worker_counters() {
  std::uint64_t probes = 0;
  for (int w = 0; w < pool_->workers(); ++w) {
    ProbeContext& ctx = *contexts_[static_cast<std::size_t>(w)];
    const EngineStats window = ctx.take_stats();
    engine_.absorb_stats(window);
    stats_.sync += ctx.take_sync_stats();
    probes += window.probes;
  }
  return probes;
}

int ParallelRewireScheduler::arbitrate_and_commit(
    std::vector<GroupResult> results, std::span<const ProbeGroup> groups,
    ProbePolicy policy, double threshold) {
  const Timer arb_timer;
  double commit_seconds = 0.0;
  TraceSpan arb_span(session_->tracer(), "arbitrate", "arbitrate_round");
  // Keep only per-group winners.
  results.erase(std::remove_if(results.begin(), results.end(),
                               [](const GroupResult& r) { return !r.has_move; }),
                results.end());
  stats_.accepted += results.size();
  arb_span.set_arg("winners", static_cast<std::int64_t>(results.size()));

  // Canonical commit order: a strict total order over (gain, group index),
  // so the sequence of live commits is identical for every worker count.
  switch (policy) {
    case ProbePolicy::MinCritical:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  if (a.crit_gain != b.crit_gain) return a.crit_gain > b.crit_gain;
                  return a.group < b.group;
                });
      break;
    case ProbePolicy::Relaxation:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  if (a.sum_gain != b.sum_gain) return a.sum_gain > b.sum_gain;
                  return a.group < b.group;
                });
      break;
    case ProbePolicy::FirstFit:
      std::sort(results.begin(), results.end(),
                [](const GroupResult& a, const GroupResult& b) {
                  return a.group < b.group;
                });
      break;
  }

  int committed = 0;
  // Provenance records happen HERE and only here: this loop is serial and
  // consumes winners in the canonical order, so the event stream is
  // worker-count-independent. `stats_.rounds` is the round coordinate of
  // every id minted below. The stream belongs to the round's session —
  // the singleton for the process-default context.
  ProvenanceLog& prov = session_->provenance();
  const std::uint64_t round = stats_.rounds;
  for (const GroupResult& r : results) {
    const std::uint64_t win_id = make_move_id(round, r.group, r.move_index);
    prov.record(win_id, ProvenanceStage::ProbeWin,
                policy == ProbePolicy::Relaxation ? r.sum_gain : r.crit_gain);

    // Re-validate against the LIVE state: earlier commits may have absorbed
    // or invalidated the replica-probed gain. That is the round's only
    // conflict check — an objective that moved at all means an earlier
    // commit reached what this move evaluates.
    ++stats_.arbiter_probes;
    const double before_crit = engine_.sta().critical_delay();
    const double before_sum = policy == ProbePolicy::Relaxation
                                  ? engine_.sta().sum_po_arrival()
                                  : 0.0;
    const EngineObjective obj = engine_.probe(r.move);
    if (obj.critical != r.probed.critical || obj.sum_po != r.probed.sum_po) {
      ++stats_.conflicted;
      prov.record(win_id, ProvenanceStage::Conflicted);
    }
    bool take = false;
    double live_gain = 0.0;  // gain under the round's own objective
    switch (policy) {
      case ProbePolicy::MinCritical:
        live_gain = before_crit - obj.critical;
        take = live_gain > threshold;
        break;
      case ProbePolicy::Relaxation:
        live_gain = before_sum - obj.sum_po;
        take = obj.critical <= before_crit + kCritSlack && live_gain > threshold;
        break;
      case ProbePolicy::FirstFit:
        live_gain = before_crit - obj.critical;
        take = obj.critical <= threshold;
        break;
    }
    EngineMove chosen = r.move;
    std::uint64_t chosen_id = win_id;
    if (!take && policy == ProbePolicy::FirstFit) {
      // The replica-chosen candidate no longer fits the live state. Replay
      // the serial algorithm for this group: probe every candidate live,
      // in order, and take the first fit (an earlier candidate that failed
      // the round baseline can fit now — a prior commit may have unloaded
      // this gate). Groups where NO candidate fit the baseline never reach
      // arbitration; that pruning is the round's parallel win and the one
      // deliberate divergence from the serial scan.
      const std::vector<EngineMove>& moves =
          groups[static_cast<std::size_t>(r.group)].moves;
      for (std::size_t i = 0; i < moves.size(); ++i) {
        if (static_cast<int>(i) == r.move_index) continue;  // already probed
        ++stats_.arbiter_probes;
        const double before = engine_.sta().critical_delay();
        const EngineObjective obj = engine_.probe(moves[i]);
        if (obj.critical <= threshold) {
          chosen = moves[i];
          take = true;
          live_gain = before - obj.critical;
          chosen_id = make_move_id(round, r.group, static_cast<int>(i));
          prov.record(chosen_id, ProvenanceStage::FallbackChosen, live_gain);
          break;
        }
      }
    }
    if (take) {
      const Timer commit_timer;
      TraceSpan commit_span(session_->tracer(), "commit", "commit_move");
      commit_span.set_arg("group", r.group);
      const std::size_t verdicts_before = engine_.paranoid_verdicts().size();
      engine_.commit(chosen);
      commit_seconds += commit_timer.seconds();
      ++committed;
      ++stats_.committed;
      stats_.gain_hist[static_cast<std::size_t>(policy)].add(live_gain);
      prov.record(chosen_id, ProvenanceStage::Committed, live_gain);
      // Paranoid mode appends one verdict per proved swap commit; thread it
      // onto the move's chain (resize commits append none).
      const std::vector<ProofVerdict>& verdicts = engine_.paranoid_verdicts();
      for (std::size_t v = verdicts_before; v < verdicts.size(); ++v) {
        switch (verdicts[v]) {
          case ProofVerdict::WindowProved:
            prov.record(chosen_id, ProvenanceStage::ProofWindowProved);
            break;
          case ProofVerdict::EscalatedProved:
            prov.record(chosen_id, ProvenanceStage::ProofEscalatedProved);
            break;
          case ProofVerdict::Inconclusive:
            prov.record(chosen_id, ProvenanceStage::ProofInconclusive);
            break;
        }
      }
    } else {
      ++stats_.revalidation_rejects;
      prov.record(win_id, ProvenanceStage::RevalidationReject, live_gain);
    }
  }
  arb_span.set_arg2("committed", committed);
  stats_.seconds_commit += commit_seconds;
  stats_.seconds_arbitrate += arb_timer.seconds() - commit_seconds;
  return committed;
}

int ParallelRewireScheduler::run_round(std::span<const ProbeGroup> groups,
                                       ProbePolicy policy, double threshold) {
  std::vector<GroupResult> results = probe_round(groups, policy, threshold);
  return arbitrate_and_commit(std::move(results), groups, policy, threshold);
}

}  // namespace rapids
