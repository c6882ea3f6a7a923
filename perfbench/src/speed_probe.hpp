// Machine-speed probe: a fixed reference computation owned by the benchmark.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes while the work stays the same. Timing this fixed
// single-threaded computation right before and after a single-threaded step
// gives the speed the step ran at, and the end-to-end timings of such steps
// are reported at a reference speed (raw seconds × reference probe time /
// measured probe time). The raw wall seconds are printed beside them. The
// computation does not call the program under test, so no change to RAPIDS
// can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedProbe {
 public:
  /// Probe time on the reference machine (a 4-CPU Xeon container): what a
  /// measure() there returns, so normalized times read as its seconds.
  static constexpr double kReferenceSeconds = 0.005;

  SpeedProbe();

  /// Seconds for one reference computation: the median of five runs.
  double measure();

 private:
  // A fixed pseudo-random DAG in topological order, relaxed like an STA
  // arrival pass: irregular loads over a few MB, as in the program's own
  // timing and probe loops.
  std::vector<std::uint32_t> fanin_a_, fanin_b_;
  std::vector<double> delay_, arrival_;
};

}  // namespace perfbench
