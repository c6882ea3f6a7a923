#include "trace/metrics.hpp"

#include <cmath>
#include <ostream>
#include <string>

#include "opt/optimizer.hpp"

namespace rapids {

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_counter(std::string_view name, std::uint64_t value) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::add_histogram(std::string_view name, const Histogram& h) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), h);
  } else {
    it->second.merge(h);
  }
}

void MetricsRegistry::set_label(std::string_view name, std::string_view value) {
  labels_.insert_or_assign(std::string(name), std::string(value));
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) add_counter(name, value);
  for (const auto& [name, value] : other.gauges_) set_gauge(name, value);
  for (const auto& [name, h] : other.histograms_) add_histogram(name, h);
  for (const auto& [name, value] : other.labels_) set_label(name, value);
}

namespace {
void write_escaped(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

void write_number(std::ostream& os, double v) {
  // JSON has no NaN/Inf; clamp to null-ish zero rather than emit garbage.
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os << v;
}
}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"rapids-metrics-v1\",\n  \"labels\": {";
  bool first = true;
  for (const auto& [name, value] : labels_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": \"";
    write_escaped(os, value);
    os << '"';
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": ";
    write_number(os, value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"";
    write_escaped(os, name);
    os << "\": {\"count\": " << h.count() << ", \"mean\": ";
    write_number(os, h.count() > 0 ? h.stats().mean() : 0.0);
    os << ", \"min\": ";
    write_number(os, h.count() > 0 ? h.stats().min() : 0.0);
    os << ", \"max\": ";
    write_number(os, h.count() > 0 ? h.stats().max() : 0.0);
    os << ", \"p50\": ";
    write_number(os, h.percentile(0.50));
    os << ", \"p90\": ";
    write_number(os, h.percentile(0.90));
    os << ", \"p99\": ";
    write_number(os, h.percentile(0.99));
    os << '}';
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void collect_flow_metrics(MetricsRegistry& reg, const OptimizerResult& r) {
  // Engine / optimizer outcomes.
  reg.add_counter("engine.probes", r.probes);
  reg.add_counter("engine.swaps_committed", static_cast<std::uint64_t>(r.swaps_committed));
  reg.add_counter("engine.resizes_committed",
                  static_cast<std::uint64_t>(r.resizes_committed));
  reg.add_counter("engine.inverters_added", static_cast<std::uint64_t>(r.inverters_added));
  reg.add_counter("engine.inverters_removed",
                  static_cast<std::uint64_t>(r.inverters_removed));
  reg.add_counter("engine.iterations", static_cast<std::uint64_t>(r.iterations));
  reg.add_counter("engine.redundancies_found",
                  static_cast<std::uint64_t>(r.redundancies_found));
  reg.add_counter("engine.candidates_enumerated", r.candidates_enumerated);

  // Scheduler round/arbitration counters.
  reg.add_counter("scheduler.rounds", r.sched_rounds);
  reg.add_counter("scheduler.accepted", r.sched_accepted);
  reg.add_counter("scheduler.committed",
                  static_cast<std::uint64_t>(r.swaps_committed + r.resizes_committed));
  reg.add_counter("scheduler.conflicted", r.sched_conflicted);
  reg.add_counter("scheduler.revalidation_rejects", r.sched_revalidation_rejects);

  // Timing propagation shape — the damping yardstick: gates_propagated /
  // probes is the per-probe cost the slack-margin cutoff exists to flatten.
  reg.add_counter("timing.gates_propagated", r.gates_propagated);
  reg.add_counter("timing.damp_cutoffs", r.damp_cutoffs);
  reg.add_counter("timing.damp_fallbacks", r.damp_fallbacks);
  reg.add_counter("timing.margin_refreshes", r.margin_refreshes);
  reg.add_counter("timing.probes_bounded", r.probes_bounded);

  // Replica sync.
  reg.add_counter("sync.full_syncs", r.replica_full_syncs);
  reg.add_counter("sync.bytes_full", r.replica_sync_bytes_full);

  // Partition maintenance.
  reg.add_counter("partition.full_rebuilds", r.partition.full_rebuilds);
  reg.add_counter("partition.incremental_updates", r.partition.incremental_updates);
  reg.add_counter("partition.sgs_reextracted", r.partition.sgs_reextracted);
  reg.add_counter("partition.sgs_reused", r.partition.sgs_reused);
  reg.add_counter("partition.gates_reextracted", r.partition.gates_reextracted);
  reg.add_counter("partition.groups_reused", r.partition.groups_reused);

  // Paranoid prover.
  reg.add_counter("proof.moves_proved", r.moves_proved);
  reg.add_counter("proof.inconclusive", r.paranoid_inconclusive);
  reg.add_counter("proof.gates_encoded", r.proof_gates_encoded);
  reg.add_counter("proof.conflicts", r.proof_conflicts);
  reg.add_counter("proof.cache_hits", r.proof_cache_hits);
  reg.add_counter("proof.roots_structural", r.proof_roots_structural);
  reg.add_counter("proof.roots_by_sat", r.proof_roots_by_sat);
  reg.add_counter("solver.learned_kept", r.solver_learned_kept);
  reg.add_counter("solver.learned_deleted", r.solver_learned_deleted);
  reg.add_counter("solver.reduce_dbs", r.solver_reduce_dbs);

  // Result gauges.
  reg.set_gauge("delay.initial_ns", r.initial_delay);
  reg.set_gauge("delay.final_ns", r.final_delay);
  reg.set_gauge("delay.improvement_pct", r.improvement_percent());
  reg.set_gauge("area.initial", r.initial_area);
  reg.set_gauge("area.final", r.final_area);
  reg.set_gauge("area.delta_pct", r.area_delta_percent());
  reg.set_gauge("sg.coverage", r.coverage);
  reg.set_gauge("sg.max_inputs", static_cast<double>(r.max_sg_inputs));
  reg.set_gauge("run.threads", static_cast<double>(r.threads));

  // Phase wall clock. Everything except sync (a subset of probe) sums to
  // time.optimize_s — the flow summary self-check relies on this.
  reg.set_gauge("time.optimize_s", r.seconds);
  reg.set_gauge("time.setup_s", r.seconds_setup);
  reg.set_gauge("time.groups_s", r.seconds_groups);
  reg.set_gauge("time.probe_s", r.seconds_probe);
  reg.set_gauge("time.arbitrate_s", r.seconds_arbitrate);
  reg.set_gauge("time.commit_s", r.seconds_commit);
  reg.set_gauge("time.finalize_s", r.seconds_finalize);
  reg.set_gauge("time.unattributed_s", r.seconds_unattributed);
  reg.set_gauge("time.sync_s", r.seconds_sync);
  reg.set_gauge("time.timing_s", r.seconds_timing);
  if (r.seconds > 0.0) {
    reg.set_gauge("rate.probes_per_sec", static_cast<double>(r.probes) / r.seconds);
  }

  for (std::size_t p = 0; p < kNumProbePolicies; ++p) {
    reg.add_histogram(std::string("hist.probe_gain_ns.") +
                          probe_policy_name(static_cast<ProbePolicy>(p)),
                      r.gain_hist[p]);
  }
  reg.add_histogram("hist.proof_conflicts", r.proof_conflict_hist);
}

}  // namespace rapids
