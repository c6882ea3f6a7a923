// Industrial-scale flow gauge (BENCH_scale.json).
//
// The tentpole claim: the per-commit costs of the parallel flow are
// O(dirty), not O(network) — replica delta sync ships only committed
// rounds' touched state, fanout-order canonicalization re-sorts only
// dirty gates, and the slack-epoch cache skips re-enumerating pruned
// swap lists whose driver arrivals are unchanged. This bench runs the
// full flow (generate -> map -> place -> optimize) over the synthetic
// large-circuit profile at several sizes and reports, per size point:
//
//   - per-epoch replica sync bytes (delta path) next to what one full
//     clone of the network would have cost,
//   - gates re-sorted per canonicalize pass after setup,
//   - swap candidates enumerated vs pruned lists served from cache,
//   - timing propagation shape: gates propagated per probe and the
//     slack-margin damp cutoff rate (the probe-cost story),
//   - the phase-timing breakdown (setup/probe/arbitrate/commit/sync).
//
// The report opens with the shared `env` header (bench/bench_env.hpp).
//
// The acceptance gauge is the growth ratio of the per-commit quantities
// from the smallest to the largest size point: O(dirty) costs stay
// roughly flat (<= 2x) while the network grows 20x. The bench FAILS
// (exit 1) when per-commit sync bytes grow as fast as the mapped network
// itself — that would mean the delta path degenerated to O(network).
//
// Usage: scale_flow [--out BENCH_scale.json] [--sizes 10000,50000,...]
//                   [--threads N] [--iters N] [--seed N]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "library/cell_library.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;

struct SizePoint {
  std::size_t target_gates = 0;
  std::size_t mapped_gates = 0;
  double initial_delay = 0.0;
  double final_delay = 0.0;
  int commits = 0;
  double seconds_total = 0.0;
  double seconds_generate = 0.0;
  double seconds_prepare = 0.0;
  double seconds_setup = 0.0;
  double seconds_probe = 0.0;
  double seconds_arbitrate = 0.0;
  double seconds_commit = 0.0;
  double seconds_sync = 0.0;
  std::uint64_t delta_syncs = 0;
  std::uint64_t full_syncs = 0;
  std::uint64_t delta_commits = 0;
  std::uint64_t sync_bytes_delta = 0;
  std::uint64_t sync_bytes_full = 0;
  double sync_bytes_per_epoch = 0.0;   // delta path, averaged per delta sync
  double sync_bytes_per_commit = 0.0;  // delta path, per commit epoch spanned
  double clone_bytes = 0.0;            // what one full sync ships instead
  std::uint64_t canonicalize_calls = 0;
  std::uint64_t gates_canonicalized = 0;
  double gates_canonicalized_per_call = 0.0;
  std::uint64_t candidates_enumerated = 0;
  std::uint64_t pruned_groups_cached = 0;
  std::uint64_t probes = 0;
  std::uint64_t gates_propagated = 0;
  std::uint64_t damp_cutoffs = 0;
  std::uint64_t margin_refreshes = 0;
  double gates_propagated_per_probe = 0.0;
  double damp_cutoff_rate = 0.0;  // cutoffs / (propagated + cutoffs)
  double seconds_timing = 0.0;
};

SizePoint measure(std::size_t target, std::uint64_t seed, int threads, int iters,
                  const CellLibrary& lib) {
  SizePoint pt;
  pt.target_gates = target;

  Timer gen_timer;
  LargeCircuitOptions lopt;
  lopt.target_gates = target;
  lopt.seed = seed;
  const Network src = make_large_circuit(lopt);
  pt.seconds_generate = gen_timer.seconds();

  FlowOptions fopt;
  fopt.verify = false;  // equivalence checking is its own (non-O(dirty)) story
  fopt.opt.mode = OptMode::Gsg;
  fopt.opt.threads = threads;
  fopt.opt.max_iterations = iters;

  Timer prep_timer;
  PreparedCircuit prepared =
      prepare_circuit("gen" + std::to_string(target), src, lib, fopt);
  pt.seconds_prepare = prep_timer.seconds();
  pt.mapped_gates = prepared.mapped.num_logic_gates();

  const ModeRun run = run_mode(std::move(prepared), lib, fopt.opt.mode, fopt);
  const OptimizerResult& r = run.result;
  pt.initial_delay = r.initial_delay;
  pt.final_delay = r.final_delay;
  pt.commits = r.swaps_committed + r.resizes_committed;
  pt.seconds_total = r.seconds;
  pt.seconds_setup = r.seconds_setup;
  pt.seconds_probe = r.seconds_probe;
  pt.seconds_arbitrate = r.seconds_arbitrate;
  pt.seconds_commit = r.seconds_commit;
  pt.seconds_sync = r.seconds_sync;
  pt.delta_syncs = r.replica_delta_syncs;
  pt.full_syncs = r.replica_full_syncs;
  pt.sync_bytes_delta = r.replica_sync_bytes_delta;
  pt.sync_bytes_full = r.replica_sync_bytes_full;
  pt.delta_commits = r.replica_delta_commits;
  if (r.replica_delta_syncs > 0) {
    pt.sync_bytes_per_epoch = static_cast<double>(r.replica_sync_bytes_delta) /
                              static_cast<double>(r.replica_delta_syncs);
  }
  if (r.replica_delta_commits > 0) {
    pt.sync_bytes_per_commit = static_cast<double>(r.replica_sync_bytes_delta) /
                               static_cast<double>(r.replica_delta_commits);
  }
  if (r.replica_full_syncs > 0) {
    pt.clone_bytes = static_cast<double>(r.replica_sync_bytes_full) /
                     static_cast<double>(r.replica_full_syncs);
  }
  pt.canonicalize_calls = r.canonicalize_calls;
  pt.gates_canonicalized = r.gates_canonicalized;
  if (r.canonicalize_calls > 0) {
    pt.gates_canonicalized_per_call = static_cast<double>(r.gates_canonicalized) /
                                      static_cast<double>(r.canonicalize_calls);
  }
  pt.candidates_enumerated = r.candidates_enumerated;
  pt.pruned_groups_cached = r.pruned_groups_cached;
  pt.probes = r.probes;
  pt.gates_propagated = r.gates_propagated;
  pt.damp_cutoffs = r.damp_cutoffs;
  pt.margin_refreshes = r.margin_refreshes;
  pt.seconds_timing = r.seconds_timing;
  if (r.probes > 0) {
    pt.gates_propagated_per_probe =
        static_cast<double>(r.gates_propagated) / static_cast<double>(r.probes);
  }
  if (r.gates_propagated + r.damp_cutoffs > 0) {
    pt.damp_cutoff_rate =
        static_cast<double>(r.damp_cutoffs) /
        static_cast<double>(r.gates_propagated + r.damp_cutoffs);
  }
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scale.json";
  std::vector<std::size_t> sizes = {10000, 50000, 100000, 200000, 500000};
  int threads = 2;
  int iters = 1;
  std::uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--out") {
      out_path = next();
    } else if (a == "--sizes") {
      sizes.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) sizes.push_back(std::stoull(tok));
    } else if (a == "--threads") {
      threads = std::stoi(next());
    } else if (a == "--iters") {
      iters = std::stoi(next());
    } else if (a == "--seed") {
      seed = std::stoull(next());
    } else {
      std::cerr << "usage: scale_flow [--out FILE] [--sizes n,n,...]"
                   " [--threads N] [--iters N] [--seed N]\n";
      return 2;
    }
  }

  const CellLibrary lib = builtin_library_035();
  std::vector<SizePoint> points;
  for (const std::size_t size : sizes) {
    std::cerr << "[scale_flow] " << size << " gates, threads=" << threads << "\n";
    try {
      points.push_back(measure(size, seed, threads, iters, lib));
    } catch (const std::exception& e) {
      std::cerr << "error at size " << size << ": " << e.what() << "\n";
      return 1;
    }
  }

  // Growth of the per-commit O(dirty) quantities, smallest -> largest.
  double sync_growth = 0.0, canon_growth = 0.0, size_growth = 0.0;
  double probe_cost_growth = 0.0;
  if (points.size() >= 2) {
    const SizePoint& lo = points.front();
    const SizePoint& hi = points.back();
    if (lo.sync_bytes_per_commit > 0) {
      sync_growth = hi.sync_bytes_per_commit / lo.sync_bytes_per_commit;
    }
    if (lo.gates_canonicalized_per_call > 0) {
      canon_growth = hi.gates_canonicalized_per_call / lo.gates_canonicalized_per_call;
    }
    if (lo.gates_propagated_per_probe > 0) {
      probe_cost_growth =
          hi.gates_propagated_per_probe / lo.gates_propagated_per_probe;
    }
    size_growth = static_cast<double>(hi.mapped_gates) /
                  static_cast<double>(lo.mapped_gates > 0 ? lo.mapped_gates : 1);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"scale_flow\",\n";
  bench::write_env(json);
  json << "  \"threads\": " << threads << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"network_size_growth\": " << size_growth << ",\n"
       << "  \"sync_bytes_per_commit_growth\": " << sync_growth << ",\n"
       << "  \"gates_canonicalized_per_call_growth\": " << canon_growth << ",\n"
       << "  \"gates_propagated_per_probe_growth\": " << probe_cost_growth << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& p = points[i];
    json << "    {\"target_gates\": " << p.target_gates
         << ", \"mapped_gates\": " << p.mapped_gates
         << ", \"initial_delay_ns\": " << p.initial_delay
         << ", \"final_delay_ns\": " << p.final_delay
         << ", \"commits\": " << p.commits << ",\n"
         << "     \"seconds\": {\"generate\": " << p.seconds_generate
         << ", \"prepare\": " << p.seconds_prepare
         << ", \"optimize\": " << p.seconds_total
         << ", \"setup\": " << p.seconds_setup
         << ", \"probe\": " << p.seconds_probe
         << ", \"arbitrate\": " << p.seconds_arbitrate
         << ", \"commit\": " << p.seconds_commit
         << ", \"sync\": " << p.seconds_sync
         << ", \"margins\": " << p.seconds_timing << "},\n"
         << "     \"replica_sync\": {\"delta_syncs\": " << p.delta_syncs
         << ", \"full_syncs\": " << p.full_syncs
         << ", \"delta_commits_covered\": " << p.delta_commits
         << ", \"bytes_delta_total\": " << p.sync_bytes_delta
         << ", \"bytes_full_total\": " << p.sync_bytes_full
         << ", \"bytes_per_epoch\": " << p.sync_bytes_per_epoch
         << ", \"bytes_per_commit\": " << p.sync_bytes_per_commit
         << ", \"clone_bytes\": " << p.clone_bytes << "},\n"
         << "     \"commit_path\": {\"canonicalize_calls\": " << p.canonicalize_calls
         << ", \"gates_canonicalized\": " << p.gates_canonicalized
         << ", \"gates_per_call\": " << p.gates_canonicalized_per_call
         << ", \"candidates_enumerated\": " << p.candidates_enumerated
         << ", \"pruned_groups_cached\": " << p.pruned_groups_cached << "},\n"
         << "     \"timing\": {\"probes\": " << p.probes
         << ", \"gates_propagated\": " << p.gates_propagated
         << ", \"gates_propagated_per_probe\": " << p.gates_propagated_per_probe
         << ", \"damp_cutoffs\": " << p.damp_cutoffs
         << ", \"damp_cutoff_rate\": " << p.damp_cutoff_rate
         << ", \"margin_refreshes\": " << p.margin_refreshes << "}}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  std::cout << json.str();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";

  // O(dirty) acceptance check: per-commit sync bytes must grow strictly
  // slower than the mapped network. A ratio at or above the size growth
  // means the dedup+compacted delta journal degenerated to shipping
  // O(network) state per commit.
  if (points.size() >= 2 && sync_growth > 0.0 && size_growth > 0.0 &&
      sync_growth >= size_growth) {
    std::cerr << "FAIL: sync bytes_per_commit grew " << sync_growth
              << "x while the network grew " << size_growth
              << "x — the delta sync path is no longer O(dirty)\n";
    return 1;
  }
  return 0;
}
