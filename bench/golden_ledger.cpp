// Netlist ledger: the final netlist of a fixed set of flows, pinned against
// history. Every optimizer change that claims "same netlists" regenerates
// this report and diffs it against the committed BENCH_golden.json with
// zero tolerance.
//
// Flows:
//   - the 19 Table 1 circuits x {gsg, GS, gsg+GS} at threads 1, with the
//     Table 1 settings (placer effort 4, 16 temperatures, 4 iterations);
//   - gen:20000 gsg at threads 4 and gen:10000:7 gsg+GS at threads 2, with
//     the `rapids flow` defaults.
//
// Per flow: the FNV-1a hash of the BLIF that `rapids flow --out` writes,
// as two 32-bit halves (bench-diff compares doubles, which hold a 32-bit
// integer exactly but not a 64-bit one) plus the hex string for people;
// final delay and area printed at max_digits10 (so they parse back to the
// same double); swaps and resizes. Work counters (probes, candidates,
// gates propagated) measure effort, not the result, and are left out.
//
// Usage: golden_ledger [--out BENCH_golden.json]
// Exits 1 if a flow fails equivalence verification.
//
// CI check: regenerate to a temporary path, then run
//   rapids bench-diff BENCH_golden.json new.json
//       --fail-above 'flows.*=0' --fail-below 'flows.*=0'
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "flow/flow.hpp"
#include "gen/suite.hpp"
#include "io/blif_writer.hpp"
#include "library/cell_library.hpp"
#include "util/log.hpp"

namespace {

using namespace rapids;

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string exact(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

struct LedgerFlow {
  std::string circuit;
  OptMode mode;
  int threads;
  bool table1_settings;
};

std::vector<LedgerFlow> ledger_flows() {
  std::vector<LedgerFlow> flows;
  for (const BenchmarkInfo& info : benchmark_suite()) {
    for (const OptMode mode : {OptMode::Gsg, OptMode::GateSizing, OptMode::GsgPlusGS}) {
      flows.push_back({info.name, mode, 1, true});
    }
  }
  flows.push_back({"gen:20000", OptMode::Gsg, 4, false});
  flows.push_back({"gen:10000:7", OptMode::GsgPlusGS, 2, false});
  return flows;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_golden.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: golden_ledger [--out FILE]\n";
      return 2;
    }
  }
  Logger::instance().set_level(LogLevel::Warning);
  const CellLibrary lib = builtin_library_035();

  std::ostringstream json;
  json << "{\n  \"bench\": \"golden_ledger\",\n";
  bench::write_env(json);
  json << "  \"flows\": {\n";
  bool ok = true;
  const std::vector<LedgerFlow> flows = ledger_flows();
  // Flows of one circuit share its mapped, placed starting point.
  std::string prepared_for;
  PreparedCircuit prepared;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const LedgerFlow& f = flows[i];
    FlowOptions options;
    if (f.table1_settings) {
      options.placer.effort = 4.0;
      options.placer.num_temps = 16;
      options.opt.max_iterations = 4;
    }
    options.opt.threads = f.threads;
    if (prepared_for != f.circuit) {
      std::cerr << "[ledger] " << f.circuit << "\n";
      prepared = prepare_circuit(f.circuit, load_circuit(f.circuit), lib, options);
      prepared_for = f.circuit;
    }
    const ModeRun run = run_mode(prepared, lib, f.mode, options);
    if (!run.verified) {
      std::cerr << "error: " << f.circuit << " " << to_string(f.mode)
                << " failed verification\n";
      ok = false;
    }
    std::ostringstream blif;
    write_blif(run.optimized, blif, f.circuit);
    const std::uint64_t hash = fnv1a64(blif.str());
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0') << hash;
    const OptimizerResult& r = run.result;
    json << "    \"" << f.circuit << "/" << to_string(f.mode) << "/t" << f.threads
         << "\": {\"blif_fnv1a64\": \"" << hex.str()
         << "\", \"blif_fnv1a64_hi\": " << (hash >> 32)
         << ", \"blif_fnv1a64_lo\": " << (hash & 0xffffffffULL)
         << ", \"final_delay\": " << exact(r.final_delay)
         << ", \"final_area\": " << exact(r.final_area)
         << ", \"swaps\": " << r.swaps_committed
         << ", \"resizes\": " << r.resizes_committed << "}"
         << (i + 1 < flows.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.flush();
  if (!out) {
    std::cerr << "error: failed to write " << out_path << "\n";
    return 1;
  }
  std::cerr << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
