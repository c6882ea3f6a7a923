// Industrial-scale flow gauge (BENCH_scale.json).
//
// Runs the full flow (generate -> map -> place -> optimize) over the
// synthetic large-circuit profile at several sizes and reports, per size
// point:
//
//   - replica sync: syncs, and bytes and seconds per sync (each sync copies
//     the live state whole, so per-sync bytes track the network),
//   - swap candidates enumerated,
//   - timing propagation shape: gates propagated per probe and the
//     slack-margin damp cutoff rate (the probe-cost story),
//   - the phase-timing breakdown (setup/probe/arbitrate/commit/sync).
//
// The report opens with the shared `env` header (bench/bench_env.hpp).
//
// The acceptance gauge is the growth ratio of gates propagated per probe
// from the smallest to the largest size point: probe cost tracks the
// timing disturbance of a move, not the network. The bench FAILS (exit 1)
// when it grows as fast as the mapped network itself — that would mean
// probes degenerated to walking O(network) cones.
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
  std::uint64_t syncs = 0;
  std::uint64_t sync_bytes = 0;
  double bytes_per_sync = 0.0;
  double seconds_per_sync = 0.0;
  std::uint64_t candidates_enumerated = 0;
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
  pt.syncs = r.replica_full_syncs;
  pt.sync_bytes = r.replica_sync_bytes_full;
  if (pt.syncs > 0) {
    pt.bytes_per_sync = static_cast<double>(pt.sync_bytes) / static_cast<double>(pt.syncs);
    pt.seconds_per_sync = r.seconds_sync / static_cast<double>(pt.syncs);
  }
  pt.candidates_enumerated = r.candidates_enumerated;
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

  // Growth of the per-probe cost and the network, smallest -> largest.
  double size_growth = 0.0, probe_cost_growth = 0.0;
  if (points.size() >= 2) {
    const SizePoint& lo = points.front();
    const SizePoint& hi = points.back();
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
         << "     \"replica_sync\": {\"syncs\": " << p.syncs
         << ", \"bytes_total\": " << p.sync_bytes
         << ", \"bytes_per_sync\": " << p.bytes_per_sync
         << ", \"seconds_per_sync\": " << p.seconds_per_sync << "},\n"
         << "     \"commit_path\": {\"candidates_enumerated\": " << p.candidates_enumerated
         << "},\n"
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

  // Acceptance check: per-probe propagation cost must grow strictly slower
  // than the mapped network.
  if (points.size() >= 2 && probe_cost_growth > 0.0 && size_growth > 0.0 &&
      probe_cost_growth >= size_growth) {
    std::cerr << "FAIL: gates propagated per probe grew " << probe_cost_growth
              << "x while the network grew " << size_growth
              << "x — probes walk O(network) cones\n";
    return 1;
  }
  return 0;
}
