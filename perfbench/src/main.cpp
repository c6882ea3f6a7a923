// RAPIDS benchmark executable: runs one named workload at a seed and prints
// every metric by name and unit.
//
//   perfbench --workload <table1|gen20k_t4|prove_gen1k> --seed N --seconds S
//             --trace 0|1 [--tiny] [--commit SHA] [--source-digest HEX]
//
// Output (stdout, one JSON object per line):
//   {"env": {...}}          machine/build header (nproc, build type, ...)
//   {"flow": {...}}         one row per (circuit, mode): QoR, moves, BLIF hash
//   {"run": {...}}          passes, machine speed, raw wall seconds
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// A run is a closed loop: each flow starts after the previous one returns.
// The circuits and placements are fixed; the seed draws the random vectors
// of the simulation-based equivalence checks. Set-up (map + place + initial
// STA) runs five times per circuit and each step reports its median.
// Untraced runs (--trace 0)
// then repeat the whole flow list while another pass still fits in S
// seconds, report the end-to-end metrics, and take every timing as the
// per-flow median over passes. Traced runs (--trace 1) make one untraced
// pass and one pass with the process tracer enabled, and report the
// per-layer metrics: counters from the untraced pass, self times from the
// traced one.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_flow.hpp"
#include "library/cell_library.hpp"
#include "trace/trace.hpp"
#include "trace_summary.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace {

using namespace rapids;
using perfbench::FlowRecord;
using perfbench::median;
using perfbench::Prepared;
using perfbench::WorkloadSpec;

constexpr int kSetupReps = 5;
constexpr int kVerifyReps = 3;
constexpr int kMaxPasses = 9;
constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 18;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = value() != "0";
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--commit") {
      a.commit = value();
    } else if (arg == "--source-digest") {
      a.source_digest = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_env(const Args& a, const WorkloadSpec& w) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  const bool release = build_type == "Release" && !asserts;
  std::cout << "{\"env\": {\"nproc\": " << online_cpus()
            << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(build_type)
            << ", \"release\": " << (release ? "true" : "false")
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"git_commit\": " << json_string(a.commit)
            << ", \"source_digest\": " << json_string(a.source_digest)
            << ", \"workload\": " << json_string(w.name) << ", \"seed\": " << a.seed
            << ", \"seconds\": " << num(a.seconds) << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"tiny\": " << (a.tiny ? "true" : "false")
            << ", \"threads\": " << w.threads << "}}\n";
  if (!release) {
    std::cerr << "perfbench: WARNING: not a Release build (" << build_type
              << (asserts ? ", assertions on" : "")
              << "); timings are not comparable with Release runs\n";
  }
  if (online_cpus() < w.threads) {
    std::cerr << "perfbench: WARNING: " << w.threads << " probe threads on "
              << online_cpus() << " CPUs; wall times measure time slicing\n";
  }
}

using Pass = std::vector<FlowRecord>;

/// One pass over every (circuit, mode) flow of the workload. A traced pass records each circuit's
/// set-up and each flow with the process tracer on and folds the spans into
/// `totals`.
Pass run_pass(const WorkloadSpec& w, const std::vector<Prepared>& prepared,
              const CellLibrary& lib, perfbench::SpeedProbe& speed,
              perfbench::TraceTotals* totals) {
  Tracer& tracer = Tracer::instance();
  auto traced = [&](auto&& body) {
    if (totals == nullptr) return body();
    tracer.enable(std::max(w.threads, 1), kTraceRingCapacity);
    body();
    tracer.disable();
    perfbench::add_trace(*totals, tracer);
  };
  if (totals != nullptr) {
    // Set-up is timed untraced before the passes; repeat it once here for
    // the bench.map/place/sta spans.
    for (const perfbench::CircuitSpec& c : w.circuits) {
      traced([&] { perfbench::prepare(c, lib, 1); });
    }
  }
  Pass pass(prepared.size() * w.modes.size());
  for (std::size_t f = 0; f < pass.size(); ++f) {
    const Prepared& p = prepared[f / w.modes.size()];
    const OptMode mode = w.modes[f % w.modes.size()];
    traced([&] {
      pass[f] =
          perfbench::run_flow(p, mode, w, lib, totals != nullptr ? 1 : kVerifyReps, speed);
    });
  }
  return pass;
}

/// Named metric with its unit, printed into the result's "metrics" object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < list_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(list_[i].name) + ": {\"value\": " + num(list_[i].value) +
             ", \"unit\": " + json_string(list_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-flow median of `field` over the untraced passes, summed over flows.
template <typename F>
double sum_of_medians(const std::vector<const Pass*>& passes, F field) {
  double total = 0.0;
  for (std::size_t f = 0; f < passes.front()->size(); ++f) {
    std::vector<double> v;
    for (const Pass* p : passes) v.push_back(field((*p)[f]));
    total += median(v);
  }
  return total;
}

void print_row(const FlowRecord& r) {
  const OptimizerResult& o = r.result;
  std::ostringstream blif_hash;
  blif_hash << std::hex << std::setw(16) << std::setfill('0') << r.blif_hash;
  std::cout << "{\"flow\": {\"circuit\": " << json_string(r.circuit)
            << ", \"mode\": " << json_string(to_string(r.mode))
            << ", \"initial_delay_ns\": " << num(o.initial_delay)
            << ", \"final_delay_ns\": " << num(o.final_delay)
            << ", \"delay_gain_pct\": " << num(o.improvement_percent())
            << ", \"area_delta_pct\": " << num(o.area_delta_percent())
            << ", \"swaps\": " << o.swaps_committed << ", \"resizes\": " << o.resizes_committed
            << ", \"probes\": " << o.probes << ", \"gates_propagated\": " << o.gates_propagated
            << ", \"optimize_s\": " << num(r.optimize_s)
            << ", \"verify_s\": " << num(r.check_s + r.sat_s)
            << ", \"proved\": " << (r.proved ? "true" : "false")
            << ", \"undecided\": " << (r.undecided ? "true" : "false")
            << ", \"blif_fnv1a64\": \"" << blif_hash.str() << "\""
            << ", \"failed\": " << (r.failed() ? "true" : "false") << "}}\n";
}

/// The deterministic outcome of a flow: every pass must reproduce it.
bool same_outcome(const FlowRecord& a, const FlowRecord& b) {
  return a.result.final_delay == b.result.final_delay &&
         a.result.final_area == b.result.final_area &&
         a.result.swaps_committed == b.result.swaps_committed &&
         a.result.resizes_committed == b.result.resizes_committed && a.blif_hash == b.blif_hash;
}

int run(const Args& args) {
  Logger::instance().set_level(LogLevel::Warning);
  WorkloadSpec w = perfbench::make_workload(args.workload, args.tiny);
  w.pattern_seed = args.seed;
  print_env(args, w);
  const CellLibrary lib = builtin_library_035();

  const Timer run_timer;
  perfbench::SpeedProbe speed;
  std::vector<Prepared> prepared;
  double speed_before = speed.measure();
  for (const perfbench::CircuitSpec& c : w.circuits) {
    prepared.push_back(perfbench::prepare(c, lib, kSetupReps));
    const double speed_after = speed.measure();
    prepared.back().speed_probe_s = 0.5 * (speed_before + speed_after);
    speed_before = speed_after;
  }

  std::vector<Pass> passes;
  perfbench::TraceTotals trace;
  if (args.trace) {
    passes.push_back(run_pass(w, prepared, lib, speed, nullptr));
    passes.push_back(run_pass(w, prepared, lib, speed, &trace));
  } else {
    double last_pass_s = 0.0;
    do {
      const Timer pass_timer;
      passes.push_back(run_pass(w, prepared, lib, speed, nullptr));
      last_pass_s = pass_timer.seconds();
    } while (static_cast<int>(passes.size()) < kMaxPasses &&
             run_timer.seconds() + last_pass_s <= args.seconds);
  }
  std::vector<const Pass*> untraced;
  for (std::size_t p = 0; p < (args.trace ? 1 : passes.size()); ++p) {
    untraced.push_back(&passes[p]);
  }
  const Pass& first = passes.front();

  // --- correctness: output checks, determinism across passes ---------------
  bool correct = true;
  std::uint64_t failed = 0;
  for (std::size_t f = 0; f < first.size(); ++f) {
    bool flow_failed = false;
    for (const Pass& p : passes) {
      const FlowRecord& r = p[f];
      flow_failed = flow_failed || r.failed();
      for (const std::string& problem : r.problems) {
        correct = false;
        std::cerr << "perfbench: " << r.circuit << " " << to_string(r.mode) << ": " << problem
                  << "\n";
      }
      if (!r.threw && !first[f].threw && !same_outcome(first[f], r)) {
        correct = false;
        std::cerr << "perfbench: " << r.circuit << " " << to_string(r.mode)
                  << ": a repeated flow produced a different netlist\n";
      }
    }
    if (flow_failed) ++failed;
  }
  for (const FlowRecord& r : first) print_row(r);

  // --- end-to-end -----------------------------------------------------------
  // Single-threaded steps are reported at the reference machine speed:
  // each time is scaled by the speed probe measured right before and after
  // it. Set-up and the equivalence checks are single-threaded everywhere;
  // optimize is when the workload runs one thread. The probe runs on one
  // CPU and does not track a multi-threaded optimize, which stays raw.
  auto at_ref = [](double seconds, double speed_probe_s) {
    return seconds * perfbench::SpeedProbe::kReferenceSeconds / speed_probe_s;
  };
  auto optimize_at_ref = [&](const FlowRecord& r) {
    return w.threads == 1 ? at_ref(r.optimize_s, r.optimize_probe_s) : r.optimize_s;
  };
  double setup_s = 0.0, setup_wall_s = 0.0, map_s = 0.0, place_s = 0.0, sta0_s = 0.0;
  double extract_s = 0.0, hpwl = 0.0, cells = 0.0;
  for (const Prepared& p : prepared) {
    setup_wall_s += p.map_s + p.place_s + p.sta_s;
    setup_s += at_ref(p.map_s + p.place_s + p.sta_s, p.speed_probe_s);
    map_s += p.map_s;
    place_s += p.place_s;
    sta0_s += p.sta_s;
    extract_s += p.extract_s;
    hpwl += p.hpwl;
    cells += static_cast<double>(p.cells);
  }
  auto sum_med = [&](auto field) { return sum_of_medians(untraced, field); };
  const double optimize_s = sum_med([](const FlowRecord& r) { return r.optimize_s; });
  const double check_s = sum_med([](const FlowRecord& r) { return r.check_s; });
  const double sat_s = sum_med([](const FlowRecord& r) { return r.sat_s; });
  const double optimize_ref_s = sum_med(optimize_at_ref);
  const double verify_ref_s =
      sum_med([&](const FlowRecord& r) { return at_ref(r.check_s + r.sat_s, r.verify_probe_s); });
  std::vector<double> speed_probes;
  for (const Pass* p : untraced) {
    for (const FlowRecord& r : *p) speed_probes.push_back(r.verify_probe_s);
  }

  double delay_final = 0.0, area_final = 0.0, gain = 0.0, area_delta = 0.0;
  for (const FlowRecord& r : first) {
    delay_final += 100.0 * ratio(r.result.final_delay, r.result.initial_delay);
    area_final += 100.0 * ratio(r.result.final_area, r.result.initial_area);
    gain += r.result.improvement_percent();
    area_delta += r.result.area_delta_percent();
  }
  const double flows = static_cast<double>(first.size());

  // --- accounting self-checks -----------------------------------------------
  // In every flow of the first pass, the optimizer's disjoint phase buckets
  // must sum to the optimize time measured from outside, within its own 5%
  // unattributed rule (checked on the workload totals); sync and margin
  // time are quoted inside probe time, never added to it.
  double first_optimize_s = 0.0, first_phases_s = 0.0, first_unattributed_s = 0.0;
  for (const FlowRecord& r : first) {
    const OptimizerResult& o = r.result;
    first_optimize_s += r.optimize_s;
    first_phases_s += o.seconds_setup + o.seconds_groups + o.seconds_probe +
                      o.seconds_arbitrate + o.seconds_commit + o.seconds_finalize +
                      o.seconds_unattributed;
    first_unattributed_s += o.seconds_unattributed;
  }
  const double slack = 0.05 * first_optimize_s;
  if (std::abs(first_phases_s - first_optimize_s) > slack || first_unattributed_s > slack) {
    correct = false;
    std::cerr << "perfbench: phase accounting: phases sum to " << first_phases_s
              << " s (unattributed " << first_unattributed_s << " s), optimize took "
              << first_optimize_s << " s\n";
  }
  auto phase = [&](double OptimizerResult::*field) {
    return sum_med([field](const FlowRecord& r) { return r.result.*field; });
  };
  const double probe_s = phase(&OptimizerResult::seconds_probe);
  const double sync_s = phase(&OptimizerResult::seconds_sync);
  const double margins_s = phase(&OptimizerResult::seconds_timing);
  if (sync_s > probe_s || margins_s > probe_s) {
    correct = false;
    std::cerr << "perfbench: phase accounting: sync " << sync_s << " s / margins " << margins_s
              << " s exceed probe " << probe_s << " s\n";
  }
  if (args.trace && trace.dropped > 0) {
    correct = false;
    std::cerr << "perfbench: the tracer dropped " << trace.dropped << " events\n";
  }

  Metrics m;
  if (!args.trace) {
    m.add("setup_s", setup_s, "s");
    m.add("optimize_s", optimize_ref_s, "s");
    m.add("verify_s", verify_ref_s, "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("delay_final_pct", delay_final / flows, "%");
    m.add("area_final_pct", area_final / flows, "%");
  } else {
    // Counters come from the untraced pass; every flow's counters repeat.
    auto total = [&](auto field) {
      double t = 0.0;
      for (const FlowRecord& r : first) t += static_cast<double>(field(r.result));
      return t;
    };
    using R = OptimizerResult;
    const double probes = total([](const R& o) { return o.probes; });
    const double accepted = total([](const R& o) { return o.sched_accepted; });
    const double swaps = total([](const R& o) { return o.swaps_committed; });
    const double resizes = total([](const R& o) { return o.resizes_committed; });
    const double hits = total([](const R& o) { return o.sched_speculation_hits; });
    const double wasted = total([](const R& o) { return o.sched_speculation_wasted; });
    const double bytes_delta = total([](const R& o) { return o.replica_sync_bytes_delta; });
    const double delta_commits = total([](const R& o) { return o.replica_delta_commits; });
    const double propagated = total([](const R& o) { return o.gates_propagated; });
    const double cutoffs = total([](const R& o) { return o.damp_cutoffs; });

    m.add("parallel.probe_s", probe_s, "s");
    m.add("parallel.arbitrate_s", phase(&R::seconds_arbitrate), "s");
    m.add("parallel.commit_s", phase(&R::seconds_commit), "s");
    m.add("parallel.sync_s", sync_s, "s");
    m.add("parallel.probes", probes, "count");
    m.add("parallel.probes_per_s", ratio(probes, probe_s), "1/s");
    m.add("parallel.rounds", total([](const R& o) { return o.sched_rounds; }), "count");
    m.add("parallel.accepted", accepted, "count");
    m.add("parallel.commit_yield", ratio(swaps + resizes, accepted), "ratio");
    m.add("parallel.conflicted", total([](const R& o) { return o.sched_conflicted; }), "count");
    m.add("parallel.revalidation_rejects",
          total([](const R& o) { return o.sched_revalidation_rejects; }), "count");
    m.add("parallel.stale_cross_sg", total([](const R& o) { return o.sched_stale_cross_sg; }),
          "count");
    m.add("parallel.spec_probes", total([](const R& o) { return o.sched_speculative_probes; }),
          "count");
    m.add("parallel.spec_hits", hits, "count");
    m.add("parallel.spec_wasted", wasted, "count");
    m.add("parallel.spec_hit_rate", ratio(hits, hits + wasted), "ratio");
    m.add("parallel.delta_syncs", total([](const R& o) { return o.replica_delta_syncs; }),
          "count");
    m.add("parallel.full_syncs", total([](const R& o) { return o.replica_full_syncs; }), "count");
    m.add("parallel.sync_bytes_delta", bytes_delta, "B");
    m.add("parallel.sync_bytes_full", total([](const R& o) { return o.replica_sync_bytes_full; }),
          "B");
    m.add("parallel.bytes_per_commit", ratio(bytes_delta, delta_commits), "B");

    m.add("opt.setup_s", phase(&R::seconds_setup), "s");
    m.add("opt.groups_s", phase(&R::seconds_groups), "s");
    m.add("opt.finalize_s", phase(&R::seconds_finalize), "s");
    m.add("opt.unattributed_s", phase(&R::seconds_unattributed), "s");
    m.add("opt.iterations", total([](const R& o) { return o.iterations; }), "count");
    m.add("opt.candidates_enumerated", total([](const R& o) { return o.candidates_enumerated; }),
          "count");
    m.add("opt.pruned_groups_cached", total([](const R& o) { return o.pruned_groups_cached; }),
          "count");
    m.add("opt.swaps", swaps, "count");
    m.add("opt.resizes", resizes, "count");
    m.add("opt.inverters_added", total([](const R& o) { return o.inverters_added; }), "count");
    m.add("opt.inverters_removed", total([](const R& o) { return o.inverters_removed; }),
          "count");

    double coverage = 0.0;
    int max_sg = 0;
    for (const FlowRecord& r : first) {
      coverage += r.result.coverage;
      max_sg = std::max(max_sg, r.result.max_sg_inputs);
    }
    m.add("sym.extract_s", extract_s, "s");
    m.add("sym.coverage", coverage / flows, "ratio");
    m.add("sym.max_sg_inputs", max_sg, "count");
    m.add("sym.redundancies", total([](const R& o) { return o.redundancies_found; }), "count");
    m.add("sym.incremental_updates",
          total([](const R& o) { return o.partition.incremental_updates; }), "count");
    m.add("sym.full_rebuilds", total([](const R& o) { return o.partition.full_rebuilds; }),
          "count");
    m.add("sym.sgs_reextracted", total([](const R& o) { return o.partition.sgs_reextracted; }),
          "count");
    m.add("sym.sgs_reused", total([](const R& o) { return o.partition.sgs_reused; }), "count");
    m.add("sym.gates_reextracted",
          total([](const R& o) { return o.partition.gates_reextracted; }), "count");
    m.add("sym.groups_reused", total([](const R& o) { return o.partition.groups_reused; }),
          "count");

    m.add("timing.sta_full_s", sta0_s + sum_med([](const FlowRecord& r) { return r.sta_s; }),
          "s");
    m.add("timing.margins_s", margins_s, "s");
    m.add("timing.gates_propagated", propagated, "count");
    m.add("timing.gates_per_probe", ratio(propagated, probes), "count");
    m.add("timing.damp_cutoff_rate", ratio(cutoffs, propagated + cutoffs), "ratio");
    m.add("timing.damp_fallbacks", total([](const R& o) { return o.damp_fallbacks; }), "count");
    m.add("timing.margin_refreshes", total([](const R& o) { return o.margin_refreshes; }),
          "count");

    m.add("sat.moves_proved", total([](const R& o) { return o.moves_proved; }), "count");
    m.add("sat.inconclusive", total([](const R& o) { return o.paranoid_inconclusive; }), "count");
    m.add("sat.gates_encoded", total([](const R& o) { return o.proof_gates_encoded; }), "count");
    m.add("sat.conflicts", total([](const R& o) { return o.proof_conflicts; }), "count");
    m.add("sat.cache_hits", total([](const R& o) { return o.proof_cache_hits; }), "count");
    m.add("sat.learned_kept", total([](const R& o) { return o.solver_learned_kept; }), "count");
    m.add("sat.learned_deleted", total([](const R& o) { return o.solver_learned_deleted; }),
          "count");
    m.add("sat.reduce_dbs", total([](const R& o) { return o.solver_reduce_dbs; }), "count");

    double proved = 0, undecided = 0, structural = 0, by_sat = 0, conflicts = 0, decisions = 0;
    double write_bytes = 0;
    for (const FlowRecord& r : first) {
      proved += r.proved ? 1 : 0;
      undecided += r.undecided ? 1 : 0;
      structural += static_cast<double>(r.outputs_structural);
      by_sat += static_cast<double>(r.outputs_by_sat);
      conflicts += static_cast<double>(r.sat_conflicts);
      decisions += static_cast<double>(r.sat_decisions);
      write_bytes += static_cast<double>(r.blif_bytes);
    }
    m.add("verify.check_s", check_s, "s");
    m.add("verify.sat_s", sat_s, "s");
    m.add("verify.proved", proved, "count");
    m.add("verify.undecided", undecided, "count");
    m.add("verify.outputs_structural", structural, "count");
    m.add("verify.outputs_by_sat", by_sat, "count");
    m.add("verify.sat_conflicts", conflicts, "count");
    m.add("verify.sat_decisions", decisions, "count");

    m.add("mapping.s", map_s, "s");
    m.add("mapping.cells", cells, "count");
    m.add("place.s", place_s, "s");
    m.add("place.hpwl", hpwl, "um");

    m.add("io.write_s", sum_med([](const FlowRecord& r) { return r.write_s; }), "s");
    m.add("io.read_s", sum_med([](const FlowRecord& r) { return r.read_s; }), "s");
    m.add("io.blif_bytes", write_bytes, "B");

    m.add("qor.flows", flows, "count");
    m.add("qor.flows_failed", static_cast<double>(failed), "count");
    m.add("qor.delay_gain_pct", gain / flows, "%");
    m.add("qor.area_delta_pct", area_delta / flows, "%");

    // Self times of the spans the program records, plus the benchmark's own
    // spans around each layer call. Probe shards are reported as busy time
    // summed over every track; probe_round's self time is then the main
    // thread's wait on the workers.
    static const char* const kSpans[] = {
        "bench.map",          "bench.place",           "bench.sta",
        "bench.optimize",     "bench.verify",          "bench.io",
        "opt.setup",          "opt.iteration",         "opt.build_groups",
        "opt.area_recovery",  "opt.finalize",          "probe.probe_round",
        "sync.replica_sync",  "arbitrate.arbitrate_round", "commit.commit_move",
        "extract.extract_full", "extract.extract_incremental", "sat.proof_window"};
    double other_s = 0.0;
    for (const auto& [key, s] : trace.self_s) {
      if (std::find_if(std::begin(kSpans), std::end(kSpans), [&](const char* k) {
            return key == k;
          }) == std::end(kSpans) && key != "probe.probe_shard") {
        other_s += s;
      }
    }
    for (const char* key : kSpans) {
      const auto it = trace.self_s.find(key);
      m.add(std::string("self.") + key + "_s", it == trace.self_s.end() ? 0.0 : it->second, "s");
    }
    m.add("self.other_s", other_s, "s");
    const auto shard = trace.busy_s.find("probe.probe_shard");
    m.add("busy.probe.probe_shard_s", shard == trace.busy_s.end() ? 0.0 : shard->second, "s");
    // Both passes at the reference speed, so machine drift between them
    // does not read as tracing cost.
    const double traced_optimize_s = sum_of_medians({&passes[1]}, optimize_at_ref);
    m.add("trace.overhead_pct", 100.0 * (ratio(traced_optimize_s, optimize_ref_s) - 1.0), "%");
    m.add("trace.dropped_events", static_cast<double>(trace.dropped), "count");
    m.add("trace.spans", static_cast<double>(trace.spans), "count");
  }
  // The raw wall seconds behind the end-to-end timings, and the speed the
  // machine ran at (1 = the reference machine).
  std::string pass_optimize = "[";
  for (const Pass* p : untraced) {
    double total = 0.0;
    for (const FlowRecord& r : *p) total += r.optimize_s;
    pass_optimize += (pass_optimize.size() > 1 ? ", " : "") + num(total);
  }
  pass_optimize += "]";
  std::cout << "{\"run\": {\"passes\": " << passes.size()
            << ", \"pass_optimize_wall_s\": " << pass_optimize
            << ", \"elapsed_s\": " << num(run_timer.seconds())
            << ", \"speed\": " << num(perfbench::SpeedProbe::kReferenceSeconds / median(speed_probes))
            << ", \"setup_wall_s\": " << num(setup_wall_s)
            << ", \"optimize_wall_s\": " << num(optimize_s)
            << ", \"verify_wall_s\": " << num(check_s + sat_s) << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << first.size() << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
