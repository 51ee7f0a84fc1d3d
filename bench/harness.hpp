#pragma once

// Plumbing shared by the ubenches that write a BENCH_*.json file: the
// --smoke flag, the span clock, the check list and the file write.
//
// A check is declared once, in a Checks list, with its name, its verdict,
// whether it gates the exit code and whether the JSON records it. The
// printed `checks:` line, the JSON check fields and main()'s return
// value are all read off that list, so they cannot disagree.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace pblpar::bench {

/// True when the command line holds --smoke: the small shape the
/// bench-smoke ctests run.
inline bool smoke_flag(int argc, char** argv) {
  return std::find(argv + 1, argv + argc, std::string_view("--smoke")) !=
         argv + argc;
}

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now. The span is taken in clock ticks before
/// it becomes a double, so a 64163 ns span reads 6.4163e-05 exactly.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Check {
  std::string name;      // on the checks: line, and the JSON key
  bool passed = false;
  bool gates = true;     // a failure makes the bench exit 1
  bool recorded = true;  // Checks::write emits it as a JSON bool
};

class Checks {
 public:
  void add(Check check) { checks_.push_back(std::move(check)); }

  /// True when every gating check passed.
  bool passed() const {
    return std::none_of(checks_.begin(), checks_.end(), failed_gate);
  }

  /// One `checks:` line on stdout; gating checks carry a `*`.
  void print() const {
    std::string line = "checks:";
    for (const Check& check : checks_) {
      line += " " + check.name + (check.gates ? "*=" : "=") +
              (check.passed ? "yes" : "no");
    }
    std::printf("%s\n", line.c_str());
  }

  /// The recorded checks as `"name": bool` members of the open object.
  void write(util::Json& json) const {
    for (const Check& check : checks_) {
      if (check.recorded) {
        json.field(check.name, check.passed);
      }
    }
  }

  /// main()'s return value: 0, or 1 after naming each failed gating
  /// check on stderr.
  int exit_code() const {
    for (const Check& check : checks_) {
      if (failed_gate(check)) {
        std::fprintf(stderr, "gating check failed: %s\n",
                     check.name.c_str());
      }
    }
    return passed() ? 0 : 1;
  }

 private:
  static bool failed_gate(const Check& check) {
    return check.gates && !check.passed;
  }

  std::vector<Check> checks_;
};

/// Writes the document plus a final newline to `path` in the working
/// directory and says so on stdout.
inline void write_file(const char* path, const util::Json& json) {
  std::ofstream(path) << json.str() << '\n';
  std::printf("wrote %s\n", path);
}

}  // namespace pblpar::bench
