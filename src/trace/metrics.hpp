// MetricsRegistry — the one machine-readable view of a run's counters.
//
// Before this existed, every subsystem exported its own ad-hoc stat struct
// (EngineStats, SchedulerStats, ReplicaSyncStats, PartitionStats,
// ProofSessionStats, the OptimizerResult grab-bag) and every consumer —
// flow summary, benches, CI — hand-picked fields. The registry unifies
// them: named counters (monotone integers), gauges (point-in-time doubles)
// and histograms (util/stats fixed-bucket percentile accumulators) behind
// one snapshot/merge API, serialized as deterministic sorted JSON
// (`rapids flow --metrics-json out.json`).
//
// Naming convention: dotted lowercase paths, subsystem first —
// "engine.probes", "scheduler.rounds", "sync.bytes_full",
// "partition.sgs_reextracted", "proof.conflicts", "time.optimize_s".
//
// Sharding model: the hot paths never touch the registry. Workers
// accumulate into their existing per-worker stat shards (ShardedStats,
// per-replica EngineStats windows), the scheduler merges
// those at round barriers exactly as before, and collect_flow_metrics()
// projects the merged result into the registry once per run. merge() folds
// registries across runs/sessions (counters add, gauges last-write-win,
// histograms merge) — the shape `rapids serve` will use per session.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace rapids {

struct OptimizerResult;

class MetricsRegistry {
 public:
  void add_counter(std::string_view name, std::uint64_t delta);
  void set_counter(std::string_view name, std::uint64_t value);
  void set_gauge(std::string_view name, double value);
  /// Fold `h` into the named histogram (created on first use with h's
  /// bucket config).
  void add_histogram(std::string_view name, const Histogram& h);

  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  const Histogram* histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const;
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Fold another registry in: counters add, gauges overwrite, histograms
  /// merge. The cross-worker / cross-session combine operation.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON snapshot: {"schema": "rapids-metrics-v1",
  /// "labels": {...}, "counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, mean, min, max, p50, p90, p99}}}, every
  /// map sorted by key.
  void write_json(std::ostream& os) const;

  /// Free-form string labels (circuit, mode, threads...) carried into the
  /// snapshot for provenance; not compared by bench_diff.
  void set_label(std::string_view name, std::string_view value);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> labels_;
};

/// Project one optimization run's merged statistics into `reg` under the
/// standard names: engine/scheduler/partition/sync/proof/solver/commit-path
/// counters, delay/area/time gauges, probe-gain + SAT-conflict histograms.
void collect_flow_metrics(MetricsRegistry& reg, const OptimizerResult& result);

}  // namespace rapids
