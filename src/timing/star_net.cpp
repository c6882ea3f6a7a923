#include "timing/star_net.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rapids {

double StarNet::delay_to(const Pin& pin) const {
  for (const StarBranch& b : branches) {
    if (b.pin == pin) return b.wire_delay;
  }
  RAPIDS_ASSERT_MSG(false, "pin is not a sink of this star net");
}

void build_star_net_into(StarNet& star, const Network& net, const CellLibrary& lib,
                         const Placement& pl, GateId driver, const PadParams& pads) {
  star.driver = driver;
  star.stem_res = 0.0;
  star.stem_cap = 0.0;
  star.wire_cap = 0.0;
  star.pin_cap = 0.0;
  star.branches.clear();
  const auto sinks = net.fanouts(driver);
  if (sinks.empty()) return;

  RAPIDS_ASSERT_MSG(pl.is_placed(driver), "driver not placed: " + net.name(driver));
  const Point src = pl.at(driver);

  // Canonical branch order: the floating-point accumulations below — and
  // therefore every arrival downstream — must depend on the sink set only.
  // A network an engine holds keeps its fanout lists sorted already (the
  // sort below then finds nothing to move), but the flow, the benchmarks
  // and the tests time networks with their first Sta before any engine
  // exists, while fanout order still reflects construction history.
  // Without the sort their arrival sums, and through them the optimized
  // netlists, would depend on that history.
  star.branches.reserve(sinks.size());
  for (const Pin& pin : sinks) star.branches.push_back(StarBranch{pin, 0, 0, 0, 0});
  // Insertion sort: nets almost always have 1-4 sinks, where this beats
  // std::sort's dispatch overhead on the probe hot path; high-fanout nets
  // fall back to std::sort so rebuilds stay O(k log k).
  auto key = [](const Pin& p) {
    return (static_cast<std::uint64_t>(p.gate) << 32) | p.index;
  };
  if (star.branches.size() > 16) {
    std::sort(star.branches.begin(), star.branches.end(),
              [&key](const StarBranch& a, const StarBranch& b) {
                return key(a.pin) < key(b.pin);
              });
  } else {
    for (std::size_t i = 1; i < star.branches.size(); ++i) {
      const StarBranch b = star.branches[i];
      std::size_t j = i;
      while (j > 0 && key(star.branches[j - 1].pin) > key(b.pin)) {
        star.branches[j] = star.branches[j - 1];
        --j;
      }
      star.branches[j] = b;
    }
  }

  // Center of gravity of all terminals (source + sinks).
  double cx = src.x, cy = src.y;
  for (const StarBranch& b : star.branches) {
    RAPIDS_ASSERT_MSG(pl.is_placed(b.pin.gate),
                      "sink not placed: " + net.name(b.pin.gate));
    const Point p = pl.at(b.pin.gate);
    cx += p.x;
    cy += p.y;
  }
  const double terms = static_cast<double>(sinks.size() + 1);
  const Point center{cx / terms, cy / terms};

  const WireParams& w = lib.wire();
  const double stem_len = manhattan(src, center);
  star.stem_res = stem_len * w.res_per_um;
  star.stem_cap = stem_len * w.cap_per_um;
  star.wire_cap = star.stem_cap;

  for (StarBranch& b : star.branches) {
    const Pin pin = b.pin;
    const double len = manhattan(pl.at(pin.gate), center);
    b.res = len * w.res_per_um;
    b.cap = len * w.cap_per_um;
    if (net.type(pin.gate) == GateType::Output) {
      b.pin_cap = pads.pad_cap;
    } else {
      const std::int32_t c = net.cell(pin.gate);
      RAPIDS_ASSERT_MSG(c >= 0, "sink gate is unmapped: " + net.name(pin.gate));
      b.pin_cap = lib.cell(c).input_cap;
    }
    star.wire_cap += b.cap;
    star.pin_cap += b.pin_cap;
  }

  // Elmore: the downstream cap charged through the stem is everything past
  // the source (half of the stem itself plus all branches and pins).
  const double downstream_of_center = star.wire_cap - star.stem_cap + star.pin_cap;
  for (StarBranch& b : star.branches) {
    b.wire_delay = star.stem_res * (star.stem_cap / 2.0 + downstream_of_center) +
                   b.res * (b.cap / 2.0 + b.pin_cap);
  }
}

StarNet build_star_net(const Network& net, const CellLibrary& lib, const Placement& pl,
                       GateId driver, const PadParams& pads) {
  StarNet star;
  build_star_net_into(star, net, lib, pl, driver, pads);
  return star;
}

}  // namespace rapids
