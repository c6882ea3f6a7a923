// Workload definitions and the timed calls into each RAPIDS layer.
//
// The benchmark measures every layer from outside: it calls the layer's
// public entry point (map_network, place, the Sta constructor, optimize,
// check_equivalence[_sat], write_blif/read_blif) and times the call. The
// optimizer's own counters and phase seconds come from the OptimizerResult
// it already returns. OptimizerOptions stay at their defaults except mode,
// threads and paranoid, the two fields the flow driver itself sets (seed,
// from the placer seed, and sta_is_fresh) and table1's max_iterations,
// which mirrors bench/table1_rapids.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "library/cell_library.hpp"
#include "netlist/network.hpp"
#include "opt/optimizer.hpp"
#include "place/placer.hpp"
#include "speed_probe.hpp"

namespace perfbench {

struct CircuitSpec {
  /// Suite name ("c432") or synthetic profile ("gen:<gates>:<seed>").
  std::string name;
  rapids::PlacerOptions placer;
};

struct WorkloadSpec {
  std::string name;
  std::vector<CircuitSpec> circuits;
  std::vector<rapids::OptMode> modes;
  int threads = 1;
  bool paranoid = false;
  /// Run check_equivalence_sat on every final netlist.
  bool prove = false;
  std::int64_t sat_conflict_budget = 0;
  /// Seed of check_equivalence's random vectors (the workload seed).
  std::uint64_t pattern_seed = 1;
  /// 0 keeps the optimizer default.
  int max_iterations = 0;
};

/// Workload `name`; `tiny` selects the smoke-test sizes. Throws
/// std::invalid_argument for an unknown name.
WorkloadSpec make_workload(const std::string& name, bool tiny);

/// A mapped and placed circuit, with the timings of its set-up.
struct Prepared {
  std::string name;
  /// Placer seed; the optimizer's RNG seed follows it, as in run_mode.
  std::uint64_t seed = 0;
  rapids::Network mapped;
  rapids::Placement placement;
  double initial_delay = 0.0;
  std::size_t cells = 0;
  double hpwl = 0.0;
  double map_s = 0.0;
  double place_s = 0.0;
  double sta_s = 0.0;
  /// Timed extract_gisg on the mapped netlist (sym layer).
  double extract_s = 0.0;
  /// Speed-probe seconds measured around the set-up (see speed_probe.hpp).
  double speed_probe_s = 0.0;
};

/// Generate the circuit, then map, place and run the initial STA `reps`
/// times, keeping the median time of each step. Every repetition must
/// reproduce the same initial delay; throws std::runtime_error otherwise.
Prepared prepare(const CircuitSpec& spec, const rapids::CellLibrary& lib, int reps);

/// One optimizer flow on a fresh copy of a prepared circuit, with its
/// layer timings and the outcome of every correctness check.
struct FlowRecord {
  std::string circuit;
  rapids::OptMode mode = rapids::OptMode::Gsg;
  rapids::OptimizerResult result;
  double sta_s = 0.0;
  double optimize_s = 0.0;
  double check_s = 0.0;
  double sat_s = 0.0;
  double write_s = 0.0;
  double read_s = 0.0;
  /// Speed-probe seconds measured right around optimize, and right around
  /// the equivalence checks (see speed_probe.hpp).
  double optimize_probe_s = 0.0;
  double verify_probe_s = 0.0;
  std::size_t blif_bytes = 0;
  std::uint64_t blif_hash = 0;
  /// Verdicts: the default tier (random/exhaustive) and, when proving, the
  /// SAT tier under the workload's conflict budget.
  bool equivalent = true;
  bool proved = false;
  bool undecided = false;
  std::size_t outputs_structural = 0;
  std::size_t outputs_by_sat = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_decisions = 0;
  /// Problems found by the output checks (empty = the flow's output is
  /// correct): refuted equivalence, a fresh STA disagreeing with the
  /// reported final delay, validate()/check_legal() findings, a BLIF round
  /// trip that does not reproduce the netlist.
  std::vector<std::string> problems;
  /// The flow threw; `problems` holds the message.
  bool threw = false;

  bool failed() const { return threw || undecided || !problems.empty(); }
};

/// Run one flow. `verify_reps` repeats the default-tier equivalence check
/// (a cheap call) and keeps the median time; `speed` is measured before and
/// after optimize and after the checks.
FlowRecord run_flow(const Prepared& prepared, rapids::OptMode mode, const WorkloadSpec& spec,
                    const rapids::CellLibrary& lib, int verify_reps, SpeedProbe& speed);

/// FNV-1a 64-bit hash (BLIF identity in the per-flow rows).
std::uint64_t fnv1a64(const std::string& text);

double median(std::vector<double> values);

}  // namespace perfbench
