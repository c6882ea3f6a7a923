// The `env` header every regenerated BENCH_*.json opens with: hardware
// threads, build type and git commit. A number is only comparable next to
// the machine and build it was taken on; a diff across machines then shows
// up as an `env` change instead of a silent regression.
//
// RAPIDS_BUILD_TYPE is defined for every bench target by CMakeLists.txt.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>

#include "util/thread_pool.hpp"

namespace rapids::bench {

/// `git describe --always --dirty` of the working directory, or "unknown"
/// outside a git checkout.
inline std::string git_commit() {
  std::string out;
  if (FILE* p = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Write the `  "env": {...},` line of a BENCH report.
inline void write_env(std::ostream& os) {
  os << "  \"env\": {\"hardware_threads\": " << ThreadPool::hardware_threads()
     << ", \"build_type\": \"" << RAPIDS_BUILD_TYPE << "\", \"git_commit\": \""
     << git_commit() << "\"},\n";
}

}  // namespace rapids::bench
