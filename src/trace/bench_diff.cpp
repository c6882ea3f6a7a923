#include "trace/bench_diff.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "util/assert.hpp"
#include "util/json_lite.hpp"

namespace rapids {

DiffRule parse_diff_rule(const std::string& spec, bool above) {
  const std::size_t eq = spec.rfind('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw InputError("bad threshold rule '" + spec + "' (expected pattern=pct)");
  }
  DiffRule rule;
  rule.pattern = spec.substr(0, eq);
  rule.above = above;
  try {
    std::size_t used = 0;
    rule.pct = std::stod(spec.substr(eq + 1), &used);
    if (used != spec.size() - eq - 1) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw InputError("bad threshold percentage in rule '" + spec + "'");
  }
  if (rule.pct < 0.0) {
    throw InputError("negative threshold in rule '" + spec + "'");
  }
  return rule;
}

bool glob_match(const std::string& pattern, const std::string& key) {
  // Iterative '*' glob with backtracking to the last star.
  std::size_t p = 0, k = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (k < key.size()) {
    if (p < pattern.size() && (pattern[p] == key[k])) {
      ++p;
      ++k;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = k;
    } else if (star != std::string::npos) {
      p = star + 1;
      k = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

DiffReport diff_metrics_json(const std::string& before_text,
                             const std::string& after_text,
                             const std::vector<DiffRule>& rules) {
  const auto before = flatten_numeric(parse_json(before_text));
  const auto after = flatten_numeric(parse_json(after_text));

  DiffReport report;
  report.keys_before = before.size();
  report.keys_after = after.size();

  auto bi = before.begin();
  auto ai = after.begin();
  while (bi != before.end() || ai != after.end()) {
    DiffEntry e;
    if (ai == after.end() || (bi != before.end() && bi->first < ai->first)) {
      e.key = bi->first;
      e.before = bi->second;
      e.in_before = true;
      ++bi;
    } else if (bi == before.end() || ai->first < bi->first) {
      e.key = ai->first;
      e.after = ai->second;
      e.in_after = true;
      ++ai;
    } else {
      e.key = bi->first;
      e.before = bi->second;
      e.after = ai->second;
      e.in_before = e.in_after = true;
      ++bi;
      ++ai;
    }
    const bool two_sided = e.in_before && e.in_after;
    if (two_sided) {
      // From a zero baseline any nonzero value is an unbounded change in
      // its own direction: it exceeds every matching rule on that side.
      if (e.before != 0.0) {
        e.delta_pct = 100.0 * (e.after - e.before) / std::fabs(e.before);
      } else if (e.after != 0.0) {
        e.delta_pct = std::copysign(std::numeric_limits<double>::infinity(), e.after);
      }
    }
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!glob_match(rules[i].pattern, e.key)) continue;
      // A key on one side only has no delta to bound: a rule that names it
      // expected it on both sides, so it fails that rule outright.
      const bool bad = !two_sided || (rules[i].above ? (e.delta_pct > rules[i].pct)
                                                     : (e.delta_pct < -rules[i].pct));
      if (bad) {
        e.violated_rule = static_cast<int>(i);
        ++report.violations;
        break;
      }
    }
    report.entries.push_back(std::move(e));
  }
  return report;
}

void write_diff_report(std::ostream& os, const DiffReport& report,
                       const std::vector<DiffRule>& rules, bool only_changed) {
  os << "bench-diff: " << report.keys_before << " baseline keys, "
     << report.keys_after << " current keys\n";
  for (const DiffEntry& e : report.entries) {
    const bool bad = e.violated_rule >= 0;
    if (!e.in_before) {
      os << (bad ? "! + " : "  + ") << e.key << " = " << e.after << " (new)";
    } else if (!e.in_after) {
      os << (bad ? "! - " : "  - ") << e.key << " (removed, was " << e.before << ")";
    } else {
      if (only_changed && e.before == e.after) continue;
      os << (bad ? "  ! " : "    ") << e.key << ": " << e.before << " -> " << e.after;
    }
    if (e.in_before && e.in_after && e.before != 0.0) {
      os << " (" << (e.delta_pct >= 0 ? "+" : "") << std::fixed
         << std::setprecision(1) << e.delta_pct << "%)" << std::defaultfloat
         << std::setprecision(6);
    }
    if (bad) {
      const DiffRule& rule = rules[static_cast<std::size_t>(e.violated_rule)];
      os << "  REGRESSION vs " << (rule.above ? "fail-above " : "fail-below ")
         << rule.pattern << "=" << rule.pct;
    }
    os << '\n';
  }
  if (report.violations > 0) {
    os << "bench-diff: " << report.violations << " regression"
       << (report.violations == 1 ? "" : "s") << " past threshold\n";
  } else {
    os << "bench-diff: ok (no thresholds exceeded)\n";
  }
}

}  // namespace rapids
