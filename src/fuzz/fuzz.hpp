// Differential fuzzing harness for the whole rewiring flow.
//
// Each iteration generates a random mapped+placed circuit (src/gen), runs
// the full optimize flow under a drawn mode at --threads 1 and --threads N,
// and cross-checks the results three ways:
//
//   determinism — the two netlists must be byte-identical as BLIF (the
//                 parallel scheduler's core contract);
//   equivalence — the optimized netlist must match the mapped input, with
//                 the SAT proof tier on top of random vectors;
//   self-check  — every flow runs with OptimizerOptions::self_check armed,
//                 so each fast path (incremental extraction, the swap
//                 cache, damped timing) is checked against its reference
//                 on every update, probe and cache hit.
//
// A failing iteration is shrunk to a minimal reproducer: primary outputs
// are dropped and gates bypassed greedily while the failure keeps
// reproducing, and the minimized circuit is written to disk as BLIF next
// to a text file describing the failure and the exact seeds. Fixed seeds
// make every run — including the CI smoke run — reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/network.hpp"

namespace rapids {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iterations = 25;
  /// Worker count for the parallel differential run (compared to 1).
  int threads = 3;
  int max_inputs = 16;
  int max_gates = 140;
  /// Escalate equivalence to a SAT proof (random vectors always run).
  bool sat_crosscheck = true;
  /// Paranoid prover differential: additionally run the serial flow with
  /// --paranoid (self-checked, so the per-move window solver runs beside
  /// the proof session on every commit), and require its netlist to equal
  /// the plain run's.
  bool paranoid_diff = false;
  /// Shrink failing circuits to minimal reproducers.
  bool shrink = true;
  /// Budget for the shrinker, in flow re-runs per failure.
  int shrink_budget = 200;
  /// Directory for reproducer files (created if missing; empty disables
  /// writing).
  std::string repro_dir = "fuzz-repros";
};

struct FuzzFailure {
  int iteration = 0;
  std::uint64_t circuit_seed = 0;
  std::string mode;        // optimizer mode under test
  std::string kind;  // "equivalence" | "determinism" | "self-check" | ...
  std::string detail;
  std::string repro_path;  // minimized BLIF (empty if not written)
};

struct FuzzResult {
  int iterations = 0;
  std::vector<FuzzFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Run the harness; progress and failures stream to `log`.
FuzzResult run_fuzz(const FuzzOptions& options, std::ostream& log);

/// Greedy structural delta-debugging: drop primary outputs and bypass gates
/// while `still_fails` keeps returning true, within `budget` predicate
/// evaluations. Returns the smallest failing network found (the input
/// itself if nothing smaller fails). Exposed for tests.
Network shrink_network(const Network& src,
                       const std::function<bool(const Network&)>& still_fails,
                       int budget);

}  // namespace rapids
