// Statistics and output checks of the benchmark.
//
// Host memory contention on shared machines arrives in bursts that slow a
// whole stretch of a run (seconds to tens of seconds) by up to 2x, so the
// gated figures are built from low quantiles of many short iterations
// rather than from means or medians of whole passes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation
/// between order statistics (the "inclusive" definition, R type 7).
/// Returns 0 for an empty input; a single value is every quantile.
double quantile(std::vector<double> values, double q);

/// Attempted and failed operations of one run: grid points, requests and
/// output checks all count.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts one operation; returns `ok` so a caller can chain on it.
  bool add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
  bool correct() const { return failed == 0; }
};

/// Holds every program's first output digest: each later iteration of the
/// same program, traced or not, must reproduce it exactly.
class DigestCheck {
 public:
  /// Records the first digest of `program`, or compares against it.
  /// Returns false on a mismatch.
  bool check(const std::string& program, uint64_t digest);

 private:
  std::map<std::string, uint64_t> first_;
};

/// FNV-1a digest of an output text.
uint64_t digest(std::string_view text);

/// Per-program iteration times of one run, in seconds.
class IterationTimes {
 public:
  void add(size_t program, double seconds);

  /// Sum over programs of each program's `q`-quantile time: the time of
  /// one pass over the program set at that quantile.
  double pass_seconds(double q) const;
  /// Quantile `p` over the programs' `q`-quantile times: the latency
  /// distribution of a request mix that visits every program equally
  /// often, with the contention of the run removed. Counting each program
  /// once, not per iteration, keeps a quantile that falls between two
  /// programs from moving with the extra iterations of a final partial
  /// pass.
  double request_quantile(double p, double q) const;
  /// Quantile `p` over the raw iteration times (noise-exposed).
  double raw_quantile(double p) const;

  size_t iterations() const { return all_.size(); }

 private:
  std::map<size_t, std::vector<double>> by_program_;
  std::vector<std::pair<size_t, double>> all_;
};

}  // namespace perfbench
