// rapids — command-line driver for the RAPIDS rewiring flow.
//
//   rapids flow <circuit|file.blif|file.bench|gen:<gates>[:seed]>
//          [--mode gsg|gs|gsg+gs]
//          [--seed N] [--effort F] [--iters N] [--threads N] [--buffers]
//          [--out out.blif] [--place-out placement.txt] [--no-verify]
//          [--sat-verify] [--paranoid] [--self-check]
//          [--trace out.json] [--metrics-json out.json]
//          [--provenance out.json]
//       Map, place, optimize and report; optionally write results.
//       gen:<gates>[:seed] runs the synthetic large-circuit profile
//       (mixed arithmetic/control/ecc blocks; see src/gen/large.hpp).
//       --threads N fans probe evaluation out to N workers; the result is
//       bit-identical to --threads 1 (deterministic commit arbitration).
//       --sat-verify escalates the final equivalence check to a SAT proof;
//       --paranoid SAT-proves every committed move on its window, through
//       one persistent incremental proof session.
//       --self-check runs every fast path beside its reference and aborts
//       on any disagreement: full re-extraction after every incremental
//       partition update, re-enumeration of every cached swap list, an
//       undamped replay of every damped probe and (with --paranoid) a
//       per-move window solver beside the proof session. Slow; same
//       netlist. Numeric flags must parse whole and lie in range.
//       --trace writes a Chrome trace-event JSON of the run (one track per
//       probe worker; load in Perfetto or chrome://tracing), --metrics-json
//       a machine-readable counter/gauge/histogram snapshot, --provenance
//       the per-move decision stream (probe win -> arbitration verdict ->
//       commit/rollback -> proof verdict). All three only OBSERVE: the
//       optimized netlist is byte-identical with them on or off.
//
//   rapids serve [--jobs file] [--max-concurrent N]
//       Long-lived multi-job driver: read job lines (`<id> <circuit>
//       [key=value ...]`, see src/serve/serve.hpp) from --jobs or stdin
//       until EOF/"quit", run up to N flows concurrently — each on its own
//       SessionContext (private tracer/metrics/provenance, persistent
//       worker pool) — and write per-job artifacts keyed by session id.
//       Each job's outputs are byte-identical to the equivalent one-shot
//       `rapids flow` invocation.
//
//   rapids bench-diff <baseline.json> <current.json>
//          [--fail-above pattern=pct]... [--fail-below pattern=pct]...
//          [--all]
//       Compare two metrics/BENCH_*.json snapshots: every numeric leaf is
//       projected onto its dotted path and diffed. Threshold rules turn
//       deltas into failures (exit 1): --fail-above time.*=10 fails when a
//       matching value grew more than 10%, --fail-below rate.*=40 when it
//       dropped more than 40%. --all prints unchanged keys too.
//
//   rapids trace-check <trace.json>
//       Validate a --trace output against the Chrome trace-event schema
//       (used by CI's trace-smoke job); prints span categories and tracks.
//
//   rapids fuzz [--seed N] [--iters N] [--threads N] [--max-gates N]
//          [--max-inputs N] [--no-sat] [--paranoid-diff] [--no-shrink]
//          [--out-dir DIR]
//       Differential fuzzing: random circuits through the full flow at
//       --threads 1 vs N and across optimizer modes, every flow
//       self-checked (as flow --self-check), cross-checked by random
//       vectors + SAT. --paranoid-diff additionally runs a self-checked
//       paranoid flow, which proves every commit with the proof session
//       and the per-move solver side by side, and requires the plain
//       flow's netlist. Failures shrink to minimal reproducers.
//
//   rapids symmetry <circuit|file.blif|file.bench>
//       Supergate / symmetry / redundancy report for a mapped circuit.
//
//   rapids table1 [--full|--quick] [--threads N] [circuit...]
//       The Table 1 harness (same engine as bench/table1_rapids).
//
//   rapids list
//       Show the built-in benchmark suite.
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "fuzz/fuzz.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "io/placement_io.hpp"
#include "library/cell_library.hpp"
#include "mapping/mapper.hpp"
#include "opt/fanout_opt.hpp"
#include "serve/serve.hpp"
#include "sym/gisg.hpp"
#include "sym/symmetry.hpp"
#include "trace/bench_diff.hpp"
#include "trace/metrics.hpp"
#include "trace/provenance.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

namespace {

using namespace rapids;

/// Upper bound of the fuzzer's circuit-size knobs.
constexpr int kMaxFuzzSize = 1'000'000;

int cmd_list() {
  std::cout << "built-in benchmark suite (regenerated Table 1 circuits):\n";
  for (const BenchmarkInfo& info : benchmark_suite()) {
    std::cout << "  " << info.name << "  (" << info.family << ", ~" << info.paper_gates
              << " gates in the paper)\n";
  }
  return 0;
}

int cmd_symmetry(const std::string& target) {
  const CellLibrary lib = builtin_library_035();
  const Network src = load_circuit(target);
  const Network net = map_network(src, lib).mapped;
  const GisgPartition part = extract_gisg(net);
  const auto swaps = enumerate_all_swaps(part, net);
  std::size_t noninv = 0;
  for (const SwapCandidate& c : swaps) {
    if (c.polarity == SwapPolarity::NonInverting) ++noninv;
  }
  std::cout << target << ": " << net.num_logic_gates() << " mapped cells\n"
            << "  supergates:        " << part.sgs.size() << " (" << part.num_nontrivial()
            << " non-trivial)\n"
            << "  coverage:          " << 100.0 * part.nontrivial_coverage(net) << "%\n"
            << "  largest supergate: " << part.max_leaves() << " inputs\n"
            << "  redundancies:      " << part.redundancies.size() << "\n"
            << "  swappable pairs:   " << swaps.size() << " (" << noninv
            << " non-inverting, " << swaps.size() - noninv << " inverting)\n";
  return 0;
}

int cmd_flow(const std::vector<std::string>& args) {
  std::string target;
  OptMode mode = OptMode::GsgPlusGS;
  FlowOptions options;
  bool buffers = false;
  std::string out_blif, out_place;
  std::string out_trace, out_metrics, out_provenance;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--mode") {
      const std::string m = next();
      if (m == "gsg") {
        mode = OptMode::Gsg;
      } else if (m == "gs" || m == "GS") {
        mode = OptMode::GateSizing;
      } else if (m == "gsg+gs" || m == "gsg+GS") {
        mode = OptMode::GsgPlusGS;
      } else {
        throw InputError("unknown mode: " + m);
      }
    } else if (a == "--seed") {
      options.placer.seed = parse_number<std::uint64_t>(next(), a);
    } else if (a == "--effort") {
      options.placer.effort = parse_number(next(), a, 0.0, kMaxEffort);
    } else if (a == "--iters") {
      options.opt.max_iterations = parse_number(next(), a, 1, kMaxIterations);
    } else if (a == "--threads") {
      options.opt.threads = parse_number(next(), a, 1, kMaxThreads);
    } else if (a == "--buffers") {
      buffers = true;
    } else if (a == "--out") {
      out_blif = next();
    } else if (a == "--place-out") {
      out_place = next();
    } else if (a == "--no-verify") {
      options.verify = false;
    } else if (a == "--sat-verify") {
      options.verify_sat = true;
    } else if (a == "--paranoid") {
      options.opt.paranoid = true;
    } else if (a == "--self-check") {
      options.opt.self_check = true;
    } else if (a == "--trace") {
      out_trace = next();
    } else if (a == "--metrics-json") {
      out_metrics = next();
    } else if (a == "--provenance") {
      out_provenance = next();
    } else if (!a.empty() && a[0] == '-') {
      throw InputError("unknown flag: " + a);
    } else {
      target = a;
    }
  }
  if (target.empty()) throw InputError("flow: no circuit given");

  // Observation-only instrumentation: enabled before any flow stage runs so
  // map/place land on the trace too. Neither recorder feeds anything back
  // into the optimization — the netlist is byte-identical with them off.
  if (!out_trace.empty()) {
    Tracer::instance().enable(std::max(options.opt.threads, 1));
  }
  if (!out_provenance.empty()) ProvenanceLog::instance().enable();

  const CellLibrary lib = builtin_library_035();
  const Network src = load_circuit(target);
  PreparedCircuit prepared = prepare_circuit(target, src, lib, options);
  std::cout << target << ": " << prepared.mapped.num_logic_gates()
            << " cells placed, initial delay " << prepared.initial_delay << " ns\n";

  // Only the buffer pass and --place-out still need the prepared circuit
  // after optimization; otherwise move-adopt it (no whole-network clone).
  const bool keep_prepared = buffers || !out_place.empty();
  ModeRun run = keep_prepared ? run_mode(prepared, lib, mode, options)
                              : run_mode(std::move(prepared), lib, mode, options);
  const OptimizerResult& r = run.result;
  std::cout << to_string(mode) << ": delay " << r.initial_delay << " -> "
            << r.final_delay << " ns (" << r.improvement_percent() << "%), area "
            << r.area_delta_percent() << "%, " << r.swaps_committed << " swaps / "
            << r.resizes_committed << " resizes, " << r.probes << " probes on "
            << r.threads << (r.threads == 1 ? " thread, " : " threads, ")
            << r.seconds << " s"
            << (options.verify ? (run.verified ? ", verified" : ", VERIFY FAILED")
                               : "")
            << "\n";
  std::cout << "partition: " << r.partition.sgs_reextracted
            << " sgs re-extracted / " << r.partition.sgs_reused << " reused over "
            << r.partition.incremental_updates << " incremental updates, "
            << r.partition.groups_reused << " probe groups served from cache, "
            << r.partition.full_rebuilds << " full rebuild"
            << (r.partition.full_rebuilds == 1 ? "" : "s") << "\n";
  // Every bucket is disjoint (sync is quoted inside probe, not added), so
  // the sum tracks the optimize total; the optimizer itself warns when the
  // unattributed remainder exceeds 5%. Margin refresh time is a subset of
  // groups and is quoted on the timing line instead.
  std::cout << "phases: setup " << r.seconds_setup << " s, groups "
            << r.seconds_groups << " s, probe " << r.seconds_probe
            << " s (incl. sync " << r.seconds_sync << " s), arbitrate "
            << r.seconds_arbitrate << " s, commit " << r.seconds_commit
            << " s, finalize " << r.seconds_finalize << " s, other "
            << r.seconds_unattributed << " s = " << r.seconds << " s\n";
  // One line per probe policy: critical, sum-of-PO and area-recovery
  // gains are different objectives and never share a distribution.
  static constexpr const char* kGainMeaning[kNumProbePolicies] = {
      "critical-delay gain", "sum-of-PO-arrival gain",
      "critical-delay gain, area recovery"};
  for (std::size_t p = 0; p < kNumProbePolicies; ++p) {
    if (r.gain_hist[p].count() == 0) continue;
    std::cout << "gains: " << probe_policy_name(static_cast<ProbePolicy>(p)) << " ("
              << kGainMeaning[p] << ", ns) " << r.gain_hist[p].to_string() << "\n";
  }
  std::cout << "scale: " << r.candidates_enumerated << " swap candidates enumerated; "
            << "replica sync " << r.replica_full_syncs << " syncs, "
            << r.replica_sync_bytes_full << " B, " << r.seconds_sync << " s\n";
  // Propagation shape: how much of the structural fanout cone each probe
  // actually walked, and how much the slack-margin cutoff suppressed.
  if (r.probes > 0) {
    const double visited = static_cast<double>(r.gates_propagated);
    const double suppressed = static_cast<double>(r.damp_cutoffs);
    std::cout << "timing: " << r.gates_propagated << " gates propagated ("
              << visited / static_cast<double>(r.probes) << " per probe), "
              << r.damp_cutoffs << " damp cutoffs ("
              << (visited + suppressed > 0.0
                      ? 100.0 * suppressed / (visited + suppressed)
                      : 0.0)
              << "%), " << r.damp_fallbacks << " undamped replays, "
              << r.probes_bounded << " probes bounded, "
              << r.margin_refreshes << " margin refreshes ("
              << r.seconds_timing << " s inside groups)\n";
  }
  if (options.opt.paranoid) {
    std::cout << "paranoid: " << r.moves_proved
              << " committed moves SAT-proved on their windows (incremental session: "
              << r.proof_gates_encoded << " gates encoded, " << r.proof_conflicts
              << " conflicts, " << r.proof_cache_hits << " cone cache hits, "
              << r.solver_learned_kept << " learned clauses retained / "
              << r.solver_learned_deleted << " evicted over " << r.solver_reduce_dbs
              << " reduce_db rounds)\n";
    if (r.proof_conflict_hist.count() > 0) {
      std::cout << "proof-conflicts: per-move " << r.proof_conflict_hist.to_string()
                << "\n";
    }
  }

  if (!out_trace.empty()) {
    Tracer& tracer = Tracer::instance();
    tracer.disable();  // workers are quiescent; freeze before exporting
    std::ofstream os(out_trace);
    if (!os) throw InputError("cannot write " + out_trace);
    tracer.write_chrome_trace(os);
    std::cout << "wrote " << out_trace << " (" << tracer.recorded()
              << " events, " << tracer.dropped() << " dropped)\n";
  }
  if (!out_metrics.empty()) {
    MetricsRegistry reg;
    // The one-shot path runs on the process-default session context.
    reg.set_label("session.id", "default");
    reg.set_label("circuit", target);
    reg.set_label("mode", to_string(mode));
    reg.set_label("threads", std::to_string(r.threads));
    collect_flow_metrics(reg, r);
    std::ofstream os(out_metrics);
    if (!os) throw InputError("cannot write " + out_metrics);
    reg.write_json(os);
    std::cout << "wrote " << out_metrics << " (" << reg.size() << " metrics)\n";
  }
  if (!out_provenance.empty()) {
    ProvenanceLog& prov = ProvenanceLog::instance();
    prov.disable();
    std::string diag;
    const int chains = prov.resolve_committed_chains(&diag);
    if (chains < 0) {
      log_warn() << "provenance self-check failed: " << diag;
    }
    std::ofstream os(out_provenance);
    if (!os) throw InputError("cannot write " + out_provenance);
    prov.write_json(os);
    std::cout << "wrote " << out_provenance << " (" << prov.records().size()
              << " events, " << (chains < 0 ? 0 : chains)
              << " committed chains resolved)\n";
  }

  if (buffers) {
    Placement pl = prepared.placement;
    Sta sta(run.optimized, lib, pl);
    const FanoutOptResult fr = optimize_fanout(run.optimized, pl, lib, sta);
    std::cout << "fanout-opt: " << fr.buffers_inserted << " buffers, delay "
              << fr.initial_delay << " -> " << fr.final_delay << " ns\n";
  }
  if (!out_blif.empty()) {
    write_blif_file(run.optimized, out_blif, target);
    std::cout << "wrote " << out_blif << "\n";
  }
  if (!out_place.empty()) {
    write_placement_file(prepared.mapped, prepared.placement, out_place);
    std::cout << "wrote " << out_place << "\n";
  }
  return run.verified ? 0 : 1;
}

int cmd_table1(const std::vector<std::string>& args) {
  bool quick = false, full = false;
  int threads = 1;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--full") {
      full = true;
    } else if (a == "--threads") {
      if (i + 1 >= args.size()) throw InputError("missing value after --threads");
      threads = parse_number(args[++i], a, 1, kMaxThreads);
    } else {
      names.push_back(a);
    }
  }
  if (names.empty()) {
    if (quick) {
      names = {"alu2", "c432", "c499"};
    } else {
      for (const BenchmarkInfo& info : benchmark_suite()) {
        if (!full && info.paper_gates > 3000) continue;
        names.push_back(info.name);
      }
    }
  }
  const CellLibrary lib = builtin_library_035();
  FlowOptions options;
  options.placer.effort = 4.0;
  options.opt.max_iterations = 4;
  options.opt.threads = threads;
  std::vector<BenchmarkRow> rows;
  for (const std::string& name : names) {
    std::cerr << "[table1] " << name << "\n";
    const PreparedCircuit prepared = prepare_benchmark(name, lib, options);
    rows.push_back(produce_table1_row(prepared, lib, options));
  }
  print_table1(rows, std::cout);
  return 0;
}

std::string read_file_text(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InputError("cannot read " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int cmd_bench_diff(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::vector<DiffRule> rules;
  bool only_changed = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--fail-above") {
      rules.push_back(parse_diff_rule(next(), /*above=*/true));
    } else if (a == "--fail-below") {
      rules.push_back(parse_diff_rule(next(), /*above=*/false));
    } else if (a == "--all") {
      only_changed = false;
    } else if (!a.empty() && a[0] == '-') {
      throw InputError("unknown bench-diff flag: " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    throw InputError("bench-diff: expected exactly two JSON files, got " +
                     std::to_string(files.size()));
  }
  const DiffReport report = diff_metrics_json(read_file_text(files[0]),
                                              read_file_text(files[1]), rules);
  write_diff_report(std::cout, report, rules, only_changed);
  return report.violations > 0 ? 1 : 0;
}

int cmd_trace_check(const std::vector<std::string>& args) {
  if (args.size() != 1) throw InputError("trace-check: expected one trace file");
  std::string diag;
  std::vector<std::string> cats;
  std::vector<std::int64_t> tids;
  if (!validate_chrome_trace(read_file_text(args[0]), &diag, &cats, &tids)) {
    std::cerr << "trace-check: INVALID: " << diag << "\n";
    return 1;
  }
  std::cout << "trace-check: ok — " << tids.size() << " tracks, "
            << cats.size() << " span categories (";
  for (std::size_t i = 0; i < cats.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << cats[i];
  }
  std::cout << ")\n";
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  ServeOptions options;
  std::string jobs_file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--jobs") {
      jobs_file = next();
    } else if (a == "--max-concurrent") {
      options.max_concurrent = parse_number(next(), a, 1, kMaxThreads);
    } else {
      throw InputError("unknown serve flag: " + a);
    }
  }
  if (jobs_file.empty()) return serve_loop(std::cin, std::cout, options);
  std::ifstream is(jobs_file);
  if (!is) throw InputError("cannot read " + jobs_file);
  return serve_loop(is, std::cout, options);
}

int cmd_fuzz(const std::vector<std::string>& args) {
  FuzzOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw InputError("missing value after " + a);
      return args[++i];
    };
    if (a == "--seed") {
      options.seed = parse_number<std::uint64_t>(next(), a);
    } else if (a == "--iters") {
      options.iterations = parse_number(next(), a, 1, std::numeric_limits<int>::max());
    } else if (a == "--threads") {
      options.threads = parse_number(next(), a, 1, kMaxThreads);
    } else if (a == "--max-gates") {
      options.max_gates = parse_number(next(), a, 1, kMaxFuzzSize);
    } else if (a == "--max-inputs") {
      options.max_inputs = parse_number(next(), a, 1, kMaxFuzzSize);
    } else if (a == "--no-sat") {
      options.sat_crosscheck = false;
    } else if (a == "--paranoid-diff") {
      options.paranoid_diff = true;
    } else if (a == "--no-shrink") {
      options.shrink = false;
    } else if (a == "--out-dir") {
      options.repro_dir = next();
    } else {
      throw InputError("unknown fuzz flag: " + a);
    }
  }
  const FuzzResult result = run_fuzz(options, std::cout);
  return result.ok() ? 0 : 1;
}

int usage() {
  std::cerr << "usage: rapids [--log-level L] "
               "<flow|serve|symmetry|table1|fuzz|bench-diff|trace-check|list> [args]\n"
               "  rapids flow c432 --mode gsg+gs --threads 4 --out c432_opt.blif\n"
               "  rapids flow c499 --sat-verify --paranoid\n"
               "  rapids flow c499 --trace t.json --metrics-json m.json\n"
               "  rapids serve --jobs jobs.txt --max-concurrent 2\n"
               "  rapids bench-diff old.json new.json --fail-below "
               "rate.probes_per_sec=40\n"
               "  rapids trace-check t.json\n"
               "  rapids symmetry k2\n"
               "  rapids table1 --quick\n"
               "  rapids fuzz --seed 7 --iters 25 --threads 3\n"
               "  rapids list\n"
               "  --log-level debug|info|warn|error|off (anywhere; default warn)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> all(argv + 1, argv + argc);
  try {
    // --log-level is global (any position, any subcommand): strip it here
    // and set the process-wide logger before dispatch.
    for (std::size_t i = 0; i < all.size();) {
      if (all[i] == "--log-level") {
        if (i + 1 >= all.size()) throw InputError("missing value after --log-level");
        Logger::instance().set_level(parse_log_level(all[i + 1]));
        all.erase(all.begin() + static_cast<std::ptrdiff_t>(i),
                  all.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      } else {
        ++i;
      }
    }
    if (all.empty()) return usage();
    const std::string cmd = all[0];
    std::vector<std::string> args(all.begin() + 1, all.end());
    if (cmd == "list") return cmd_list();
    if (cmd == "symmetry") {
      if (args.empty()) return usage();
      return cmd_symmetry(args[0]);
    }
    if (cmd == "flow") return cmd_flow(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "table1") return cmd_table1(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    if (cmd == "bench-diff") return cmd_bench_diff(args);
    if (cmd == "trace-check") return cmd_trace_check(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
