#include "bench_flow.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flow/flow.hpp"
#include "gen/large.hpp"
#include "gen/suite.hpp"
#include "io/blif_reader.hpp"
#include "io/blif_writer.hpp"
#include "mapping/mapper.hpp"
#include "netlist/validate.hpp"
#include "place/wirelength.hpp"
#include "sym/gisg.hpp"
#include "timing/sta.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"

namespace perfbench {

using namespace rapids;

namespace {

/// Circuits per prove_gen1k run, and the per-PO conflict budget of its
/// whole-network proofs.
constexpr int kProveCircuits = 16;
constexpr std::int64_t kProveConflictBudget = 200'000;

/// Placer effort shrink above this many cells, as prepare_circuit applies it.
const std::size_t kReduceEffortAbove = FlowOptions{}.reduce_effort_above;

/// Circuits are named as `rapids flow` takes them: "gen:<gates>[:<seed>]"
/// (seed 1 when omitted) or a suite name. The name is also the BLIF model
/// name, as `rapids flow --out` writes it, so the hashes compare.
Network make_source(const std::string& name) {
  if (name.rfind("gen:", 0) == 0) {
    const std::string spec = name.substr(4);
    const std::size_t colon = spec.find(':');
    LargeCircuitOptions opt;
    opt.target_gates = std::stoull(spec.substr(0, colon));
    if (colon != std::string::npos) opt.seed = std::stoull(spec.substr(colon + 1));
    return make_large_circuit(opt);
  }
  return make_benchmark(name);
}

Tracer& tracer() { return Tracer::instance(); }

}  // namespace

WorkloadSpec make_workload(const std::string& name, bool tiny) {
  // Inputs are fixed per workload (see perfbench/LAYERS.md, "Seeds"):
  // placer seed 1 everywhere, so table1 reproduces bench/table1_rapids.cpp
  // and gen20k_t4 reproduces `rapids flow gen:20000 --mode gsg --threads 4`.
  WorkloadSpec w;
  w.name = name;
  PlacerOptions placer;
  if (name == "table1") {
    placer.effort = 4.0;
    placer.num_temps = 16;
    std::vector<std::string> names;
    for (const BenchmarkInfo& info : benchmark_suite()) names.push_back(info.name);
    if (tiny) names = {"alu2", "c432"};
    for (const std::string& n : names) w.circuits.push_back({n, placer});
    w.modes = {OptMode::Gsg, OptMode::GateSizing, OptMode::GsgPlusGS};
    w.max_iterations = 4;
  } else if (name == "gen20k_t4") {
    w.circuits.push_back({tiny ? "gen:2000" : "gen:20000", placer});
    w.modes = {OptMode::Gsg};
    w.threads = 4;
  } else if (name == "prove_gen1k") {
    for (int i = 1; i <= (tiny ? 1 : kProveCircuits); ++i) {
      w.circuits.push_back({(tiny ? "gen:500:" : "gen:1000:") + std::to_string(i), placer});
    }
    w.modes = {OptMode::Gsg};
    w.paranoid = true;
    w.prove = true;
    w.sat_conflict_budget = kProveConflictBudget;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Prepared prepare(const CircuitSpec& spec, const CellLibrary& lib, int reps) {
  const Network src = make_source(spec.name);
  std::vector<double> map_s, place_s, sta_s, extract_s;
  Prepared p;
  p.name = spec.name;
  p.seed = spec.placer.seed;
  for (int r = 0; r < std::max(reps, 1); ++r) {
    Timer t;
    Network mapped;
    {
      TraceSpan span(tracer(), "bench", "map");
      mapped = map_network(src, lib).mapped;
    }
    map_s.push_back(t.seconds());

    // prepare_circuit's effort rule: large circuits get proportionally
    // fewer annealing moves per temperature.
    PlacerOptions popt = spec.placer;
    const std::size_t cells = mapped.num_logic_gates();
    if (cells > kReduceEffortAbove) {
      popt.effort = popt.effort * static_cast<double>(kReduceEffortAbove) /
                    static_cast<double>(cells);
    }
    t.reset();
    Placement placement;
    {
      TraceSpan span(tracer(), "bench", "place");
      placement = place(mapped, lib, popt);
    }
    place_s.push_back(t.seconds());

    t.reset();
    double delay = 0.0;
    {
      TraceSpan span(tracer(), "bench", "sta");
      Sta sta(mapped, lib, placement);
      delay = sta.critical_delay();
    }
    sta_s.push_back(t.seconds());

    t.reset();
    const GisgPartition part = extract_gisg(mapped);
    extract_s.push_back(t.seconds());

    if (r > 0 && delay != p.initial_delay) {
      throw std::runtime_error(spec.name + ": set-up is not deterministic (initial delay " +
                               std::to_string(p.initial_delay) + " then " +
                               std::to_string(delay) + ")");
    }
    for (const std::string& v : check_legal(mapped, lib, placement)) {
      throw std::runtime_error(spec.name + ": set-up placement is illegal: " + v);
    }
    p.mapped = std::move(mapped);
    p.placement = std::move(placement);
    p.initial_delay = delay;
    p.cells = cells;
  }
  p.hpwl = total_hpwl(p.mapped, p.placement);
  p.map_s = median(map_s);
  p.place_s = median(place_s);
  p.sta_s = median(sta_s);
  p.extract_s = median(extract_s);
  return p;
}

FlowRecord run_flow(const Prepared& prepared, OptMode mode, const WorkloadSpec& spec,
                    const CellLibrary& lib, int verify_reps, SpeedProbe& speed) {
  FlowRecord rec;
  rec.circuit = prepared.name;
  rec.mode = mode;
  try {
    Network net = prepared.mapped.clone();
    Placement placement = prepared.placement;

    Timer t;
    std::optional<Sta> sta;
    {
      TraceSpan span(tracer(), "bench", "sta");
      sta.emplace(net, lib, placement);
    }
    rec.sta_s = t.seconds();

    OptimizerOptions opt;
    opt.mode = mode;
    opt.threads = spec.threads;
    opt.paranoid = spec.paranoid;
    if (spec.max_iterations > 0) opt.max_iterations = spec.max_iterations;
    // What the flow driver (run_mode) sets: the run is reproduced by the
    // placer seed, and the Sta above is a fresh full analysis.
    opt.seed = prepared.seed;
    opt.sta_is_fresh = true;
    const double speed_before = speed.measure();
    t.reset();
    {
      TraceSpan span(tracer(), "bench", "optimize");
      rec.result = optimize(net, placement, lib, *sta, opt);
    }
    rec.optimize_s = t.seconds();
    const double speed_between = speed.measure();
    rec.optimize_probe_s = 0.5 * (speed_before + speed_between);

    EquivalenceOptions eopt;
    eopt.seed = spec.pattern_seed;
    std::vector<double> check_s;
    for (int r = 0; r < std::max(verify_reps, 1); ++r) {
      t.reset();
      EquivalenceResult eq;
      {
        TraceSpan span(tracer(), "bench", "verify");
        eq = check_equivalence(prepared.mapped, net, eopt);
      }
      check_s.push_back(t.seconds());
      rec.equivalent = eq.equivalent;
      rec.proved = eq.proved;
    }
    rec.check_s = median(check_s);
    if (!rec.equivalent) rec.problems.push_back("equivalence refuted by simulation");

    if (spec.prove && rec.equivalent) {
      SatEquivalenceOptions sopt;
      sopt.conflict_limit = spec.sat_conflict_budget;
      t.reset();
      SatEquivalenceResult sat;
      {
        TraceSpan span(tracer(), "bench", "verify");
        sat = check_equivalence_sat(prepared.mapped, net, sopt);
      }
      rec.sat_s = t.seconds();
      rec.outputs_structural = sat.outputs_proved_structurally;
      rec.outputs_by_sat = sat.outputs_proved_by_sat;
      rec.sat_conflicts = sat.conflicts;
      rec.sat_decisions = sat.decisions;
      switch (sat.status) {
        case SatEquivalenceResult::Status::Proved:
          rec.proved = true;
          break;
        case SatEquivalenceResult::Status::Unknown:
          rec.undecided = true;
          break;
        case SatEquivalenceResult::Status::NotEquivalent:
          rec.equivalent = false;
          rec.problems.push_back("equivalence refuted by SAT at output " +
                                 sat.failing_output);
          break;
      }
    }

    rec.verify_probe_s = 0.5 * (speed_between + speed.measure());

    // The reported final delay must be what a fresh analysis of the final
    // netlist and placement gives.
    const double fresh = Sta(net, lib, placement).critical_delay();
    if (fresh != rec.result.final_delay) {
      rec.problems.push_back("fresh STA gives " + std::to_string(fresh) +
                             " ns, optimizer reported " +
                             std::to_string(rec.result.final_delay));
    }
    for (const std::string& v : validate(net)) rec.problems.push_back("validate: " + v);
    // The set-up placement passed check_legal; the optimizer must leave
    // every original cell where it was. (Inserted inverters sit on their
    // sink's location and resized cells keep their origin, so check_legal
    // on the final placement reports overlaps by design.)
    prepared.mapped.for_each_gate([&](GateId g) {
      if (!is_logic(prepared.mapped.type(g)) || prepared.mapped.type(g) == GateType::Inv ||
          !prepared.placement.is_placed(g)) {
        return;
      }
      const Point& before = prepared.placement.at(g);
      if (net.is_deleted(g) || !placement.is_placed(g) || placement.at(g).x != before.x ||
          placement.at(g).y != before.y) {
        rec.problems.push_back("cell " + std::to_string(g) + " moved or vanished");
      }
    });

    // io layer: the final netlist's BLIF round trip, in memory.
    std::string blif;
    t.reset();
    {
      TraceSpan span(tracer(), "bench", "io");
      std::ostringstream os;
      write_blif(net, os, prepared.name);
      blif = std::move(os).str();
    }
    rec.write_s = t.seconds();
    t.reset();
    Network back;
    {
      TraceSpan span(tracer(), "bench", "io");
      std::istringstream is(blif);
      back = read_blif(is);
    }
    rec.read_s = t.seconds();
    rec.blif_bytes = blif.size();
    rec.blif_hash = fnv1a64(blif);
    // The reader rebuilds SOP covers as AND/OR logic, so the read-back
    // netlist differs structurally; it must keep the interface and function.
    if (back.primary_inputs().size() != net.primary_inputs().size() ||
        back.primary_outputs().size() != net.primary_outputs().size() ||
        !check_equivalence(net, back, eopt).equivalent) {
      rec.problems.push_back("BLIF round trip changed the netlist's function");
    }
  } catch (const std::exception& e) {
    rec.threw = true;
    rec.problems.push_back(std::string("threw: ") + e.what());
  }
  return rec;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
