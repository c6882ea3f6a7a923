#include "speed_probe.hpp"

#include <algorithm>
#include <array>

#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = std::size_t{1} << 17;
constexpr int kSweeps = 16;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe()
    : fanin_a_(kNodes), fanin_b_(kNodes), delay_(kNodes), arrival_(kNodes, 0.0) {
  std::uint64_t state = 20000601;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::uint64_t r = splitmix64(state);
    const std::uint64_t bound = std::max<std::uint64_t>(i, 1);
    fanin_a_[i] = static_cast<std::uint32_t>(r % bound);
    fanin_b_[i] = static_cast<std::uint32_t>((r >> 32) % bound);
    delay_[i] = 0.1 + static_cast<double>(r & 0xff) / 256.0;
  }
}

double SpeedProbe::measure() {
  std::array<double, 5> runs{};
  for (double& seconds : runs) {
    const rapids::Timer t;
    for (int s = 0; s < kSweeps; ++s) {
      for (std::size_t i = 0; i < kNodes; ++i) {
        arrival_[i] = 0.5 * std::max(arrival_[fanin_a_[i]], arrival_[fanin_b_[i]]) + delay_[i];
      }
    }
    seconds = t.seconds();
  }
  std::sort(runs.begin(), runs.end());
  return runs[2];
}

}  // namespace perfbench
