#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "engine/rewire_engine.hpp"
#include "flow/flow.hpp"
#include "gen/random_circuit.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "netlist/validate.hpp"
#include "util/rng.hpp"
#include "verify/equivalence.hpp"

namespace rapids {

namespace {

std::string blif_string(const Network& net) {
  std::ostringstream os;
  write_blif(net, os, "fuzz");
  return os.str();
}

OptMode mode_for_iteration(int iter) {
  switch (iter % 3) {
    case 0:
      return OptMode::GsgPlusGS;
    case 1:
      return OptMode::Gsg;
    default:
      return OptMode::GateSizing;
  }
}

/// One differential experiment: full flow at threads=1 and threads=N on a
/// source network. Returns empty string on success, else a "kind: detail"
/// failure description.
std::string run_experiment(const Network& src, OptMode mode, std::uint64_t flow_seed,
                           int threads, bool sat_crosscheck, bool paranoid_diff) {
  const CellLibrary& lib = builtin_library_035();
  FlowOptions fopt;
  fopt.placer.seed = flow_seed;
  fopt.placer.effort = 1.0;
  fopt.opt.max_iterations = 2;
  // Fuzz-sized circuits make the references cheap: every flow checks each
  // fast path against its reference and throws "self-check: ..." on the
  // first disagreement, so the shrinker can chase the exact update, probe
  // or cache hit that broke.
  fopt.opt.self_check = true;
  fopt.verify = false;  // the harness does its own, stronger checks

  try {
    const PreparedCircuit prepared = prepare_circuit("fuzz", src, lib, fopt);

    fopt.opt.threads = 1;
    const ModeRun serial = run_mode(prepared, lib, mode, fopt);
    fopt.opt.threads = threads;
    const ModeRun parallel = run_mode(prepared, lib, mode, fopt);

    if (threads > 1 && blif_string(serial.optimized) != blif_string(parallel.optimized)) {
      return "determinism: threads=1 and threads=" + std::to_string(threads) +
             " produced different netlists";
    }
    // Every round is a barrier and each group's probe count is a pure
    // function of the live state, so the probe total is thread-invariant
    // too, and so is the propagation shape: replicas probe on the live
    // engine's levels and margins, which only the live engine refreshes.
    struct Count {
      const char* what;
      std::uint64_t serial, parallel;
    };
    for (const Count& c :
         {Count{"probe counts", serial.result.probes, parallel.result.probes},
          Count{"gates_propagated", serial.result.gates_propagated,
                parallel.result.gates_propagated},
          Count{"damp_cutoffs", serial.result.damp_cutoffs, parallel.result.damp_cutoffs},
          Count{"damp_fallbacks", serial.result.damp_fallbacks,
                parallel.result.damp_fallbacks},
          Count{"margin_refreshes", serial.result.margin_refreshes,
                parallel.result.margin_refreshes},
          Count{"probes_bounded", serial.result.probes_bounded,
                parallel.result.probes_bounded}}) {
      if (threads > 1 && c.serial != c.parallel) {
        return "determinism: threads=1 and threads=" + std::to_string(threads) +
               " reported different " + c.what + " (" + std::to_string(c.serial) +
               " vs " + std::to_string(c.parallel) + ")";
      }
    }

    if (paranoid_diff) {
      // Prover differential: self-check runs the per-move window solver
      // beside the proof session on every commit, and the engine throws
      // if the reference proves a move the session does not. Proving must
      // not perturb the optimization either. An Inconclusive reject
      // (conservative, budget-driven) legitimately drops a move the plain
      // run kept, so the netlist cross-check only applies to
      // inconclusive-free runs — at the default budgets on fuzz-sized
      // circuits that is every run.
      FlowOptions popt = fopt;
      popt.opt.threads = 1;
      popt.opt.paranoid = true;
      const ModeRun proved = run_mode(prepared, lib, mode, popt);
      const auto& verdicts = proved.result.paranoid_verdicts;
      const bool any_inconclusive =
          std::find(verdicts.begin(), verdicts.end(),
                    static_cast<std::uint8_t>(ProofVerdict::Inconclusive)) !=
          verdicts.end();
      if (!any_inconclusive &&
          blif_string(proved.optimized) != blif_string(serial.optimized)) {
        return "paranoid: paranoid flow diverged from the plain flow";
      }
    }

    EquivalenceOptions eopt;
    eopt.sat_proof = sat_crosscheck;
    const EquivalenceResult eq = check_equivalence(prepared.mapped, serial.optimized, eopt);
    if (!eq.equivalent) {
      return "equivalence: optimized netlist differs at output " + eq.failing_output;
    }

    const auto problems = validate(serial.optimized);
    if (!problems.empty()) {
      return "structure: " + problems.front();
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    if (what.find("self-check: ") != std::string::npos) {
      return "self-check: " + what;  // distinct kind: the shrinker chases it
    }
    return "exception: " + what;
  }
  return "";
}

}  // namespace

Network shrink_network(const Network& src,
                       const std::function<bool(const Network&)>& still_fails,
                       int budget) {
  Network best = src.clone();
  // One scratch network for every trial mutation: copy-assignment reuses
  // its arena/adjacency-pool capacity, so a shrink run allocates O(1)
  // networks instead of one fresh clone per probe.
  Network candidate;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;

    // Pass 1: drop primary outputs (fastest way to lose whole cones).
    if (best.primary_outputs().size() > 1) {
      const std::vector<GateId> pos(best.primary_outputs().begin(),
                                    best.primary_outputs().end());
      for (const GateId po : pos) {
        if (budget <= 0) break;
        if (best.primary_outputs().size() <= 1) break;
        candidate = best;
        candidate.delete_gate(po);
        candidate.sweep_dangling();
        --budget;
        if (still_fails(candidate)) {
          std::swap(best, candidate);
          progress = true;
        }
      }
    }

    // Pass 2: bypass logic gates (reconnect their sinks to their first
    // fanin). Descending id order tends to unravel from the outputs down.
    std::vector<GateId> gates;
    for (const GateId g : best.gates()) {
      if (is_logic(best.type(g)) && best.fanin_count(g) >= 1) gates.push_back(g);
    }
    for (auto it = gates.rbegin(); it != gates.rend() && budget > 0; ++it) {
      const GateId g = *it;
      if (best.is_deleted(g)) continue;  // removed by an earlier bypass sweep
      candidate = best;
      candidate.replace_all_fanouts(g, candidate.fanin(g, 0));
      candidate.delete_gate(g);
      candidate.sweep_dangling();
      if (!validate(candidate).empty()) continue;
      --budget;
      if (still_fails(candidate)) {
        std::swap(best, candidate);
        progress = true;
      }
    }
  }
  return best;
}

FuzzResult run_fuzz(const FuzzOptions& options, std::ostream& log) {
  FuzzResult result;
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++result.iterations;
    const RandomCircuitOptions profile = random_fuzz_profile(
        options.seed, static_cast<std::uint64_t>(iter), options.max_inputs,
        options.max_gates);
    const std::uint64_t circuit_seed =
        Rng::substream(options.seed, static_cast<std::uint64_t>(iter) * 2).next_u64();
    const Network src = random_network(circuit_seed, profile);
    const OptMode mode = mode_for_iteration(iter);
    const char* mode_name = to_string(mode);
    const std::uint64_t flow_seed = options.seed + static_cast<std::uint64_t>(iter);

    const std::string failure = run_experiment(src, mode, flow_seed, options.threads,
                                               options.sat_crosscheck,
                                               options.paranoid_diff);
    if (failure.empty()) {
      log << "[fuzz] iter " << iter << " mode " << mode_name << " ("
          << src.num_logic_gates() << " gates): ok\n";
      continue;
    }

    FuzzFailure f;
    f.iteration = iter;
    f.circuit_seed = circuit_seed;
    f.mode = mode_name;
    const std::size_t colon = failure.find(':');
    f.kind = failure.substr(0, colon);
    f.detail = failure;
    log << "[fuzz] iter " << iter << " mode " << mode_name << " FAILED: " << failure
        << "\n";

    Network minimal = src.clone();
    if (options.shrink) {
      // Chase the SAME failure kind: a degenerate candidate that fails for
      // an unrelated reason (e.g. a mapper exception) must not be accepted.
      const auto still_fails = [&](const Network& candidate) {
        const std::string err = run_experiment(candidate, mode, flow_seed,
                                               options.threads, options.sat_crosscheck,
                                               options.paranoid_diff);
        return !err.empty() && err.compare(0, f.kind.size(), f.kind) == 0;
      };
      minimal = shrink_network(src, still_fails, options.shrink_budget);
      log << "[fuzz]   shrunk " << src.num_gates() << " -> " << minimal.num_gates()
          << " gates\n";
    }

    if (!options.repro_dir.empty()) {
      std::filesystem::create_directories(options.repro_dir);
      const std::string stem = options.repro_dir + "/fuzz_" +
                               std::to_string(options.seed) + "_iter" +
                               std::to_string(iter);
      write_blif_file(minimal, stem + ".blif", "fuzz_repro");
      std::ofstream txt(stem + ".txt");
      txt << "fuzz failure\n"
          << "  kind:         " << f.kind << "\n"
          << "  detail:       " << f.detail << "\n"
          << "  mode:         " << f.mode << "\n"
          << "  harness seed: " << options.seed << " (iteration " << iter << ")\n"
          << "  circuit seed: " << circuit_seed << "\n"
          << "  flow seed:    " << flow_seed << "\n"
          << "  threads:      1 vs " << options.threads << "\n";
      // The harness runs the flow self-checked with effort=1 / 2 optimizer
      // iterations (see run_experiment); the repro command must pin all
      // three or the CLI defaults run a different schedule and the bug may
      // not reproduce.
      const std::string base = "rapids flow " + stem + ".blif --mode " + f.mode +
                               " --seed " + std::to_string(flow_seed) +
                               " --effort 1 --iters 2 --self-check";
      if (f.kind == "determinism") {
        txt << "repro: " << base << " --threads 1 --out " << stem << "_t1.blif\n"
            << "       " << base << " --threads " << options.threads << " --out "
            << stem << "_tN.blif\n"
            << "       cmp " << stem << "_t1.blif " << stem << "_tN.blif\n";
      } else if (f.kind == "paranoid") {
        txt << "repro: " << base << " --paranoid --threads 1\n";
      } else {
        txt << "repro: " << base << " --sat-verify --threads 1\n";
      }
      f.repro_path = stem + ".blif";
      log << "[fuzz]   reproducer written to " << f.repro_path << "\n";
    }
    result.failures.push_back(std::move(f));
  }

  log << "[fuzz] " << result.iterations << " iterations, " << result.failures.size()
      << " failure(s)\n";
  return result;
}

}  // namespace rapids
