// Self-time accounting over a Tracer's recorded spans.
//
// The tracer's only read-out is its Chrome trace export, so the summary
// parses that (at full timestamp precision) and rebuilds the span nesting
// per track: spans on one track come from RAII scopes on one thread, so they
// nest properly. A span's self time is its duration minus the durations of
// its direct children on the same track.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "trace/trace.hpp"

namespace perfbench {

struct TraceTotals {
  /// "<cat>.<name>" -> summed self seconds over every track.
  std::map<std::string, double> self_s;
  /// "<cat>.<name>" -> summed span seconds over every track.
  std::map<std::string, double> busy_s;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
};

/// Fold everything `tracer` holds into `totals`. Call with the recorders
/// quiesced (after the traced work returned).
void add_trace(TraceTotals& totals, const rapids::Tracer& tracer);

}  // namespace perfbench
