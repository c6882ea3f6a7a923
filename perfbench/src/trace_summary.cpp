#include "trace_summary.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <vector>

#include "util/json_lite.hpp"

namespace perfbench {

namespace {

struct Span {
  std::string key;
  double begin_us = 0.0;
  double end_us = 0.0;
  double child_us = 0.0;
};

}  // namespace

void add_trace(TraceTotals& totals, const rapids::Tracer& tracer) {
  std::ostringstream os;
  // Timestamps are written as doubles in microseconds; full precision keeps
  // sibling spans from appearing to overlap.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  tracer.write_chrome_trace(os);
  const rapids::JsonValue doc = rapids::parse_json(os.str());

  std::map<std::int64_t, std::vector<Span>> tracks;
  if (const rapids::JsonValue* events = doc.find("traceEvents")) {
    for (const rapids::JsonValue& ev : events->items()) {
      const rapids::JsonValue* ph = ev.find("ph");
      if (ph == nullptr || ph->as_string() != "X") continue;
      Span s;
      s.key = ev.find("cat")->as_string() + "." + ev.find("name")->as_string();
      s.begin_us = ev.find("ts")->as_number();
      s.end_us = s.begin_us + ev.find("dur")->as_number();
      tracks[static_cast<std::int64_t>(ev.find("tid")->as_number())].push_back(std::move(s));
    }
  }
  if (const rapids::JsonValue* other = doc.find("otherData")) {
    if (const rapids::JsonValue* d = other->find("dropped_events")) {
      totals.dropped += static_cast<std::uint64_t>(d->as_number());
    }
  }

  for (auto& track : tracks) {
    std::vector<Span>& spans = track.second;
    // Parents sort before the children they contain: earlier start first,
    // and on a tie the longer span first.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.begin_us != b.begin_us ? a.begin_us < b.begin_us : a.end_us > b.end_us;
    });
    std::vector<Span*> open;
    for (Span& s : spans) {
      while (!open.empty() && open.back()->end_us <= s.begin_us) open.pop_back();
      if (!open.empty()) open.back()->child_us += s.end_us - s.begin_us;
      open.push_back(&s);
    }
    for (const Span& s : spans) {
      const double dur_s = (s.end_us - s.begin_us) * 1e-6;
      totals.self_s[s.key] += std::max(0.0, dur_s - s.child_us * 1e-6);
      totals.busy_s[s.key] += dur_s;
      ++totals.spans;
    }
  }
}

}  // namespace perfbench
