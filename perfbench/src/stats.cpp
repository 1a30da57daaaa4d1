#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool DigestCheck::check(const std::string& program, uint64_t d) {
  const auto [it, inserted] = first_.emplace(program, d);
  return inserted || it->second == d;
}

uint64_t digest(std::string_view text) { return foray::util::fnv1a(text); }

void IterationTimes::add(size_t program, double seconds) {
  by_program_[program].push_back(seconds);
  all_.emplace_back(program, seconds);
}

double IterationTimes::pass_seconds(double q) const {
  double sum = 0.0;
  for (const auto& [program, times] : by_program_) {
    sum += quantile(times, q);
  }
  return sum;
}

double IterationTimes::request_quantile(double p, double q) const {
  std::vector<double> floors;
  for (const auto& [program, times] : by_program_) {
    floors.push_back(quantile(times, q));
  }
  return quantile(std::move(floors), p);
}

double IterationTimes::raw_quantile(double p) const {
  std::vector<double> v;
  v.reserve(all_.size());
  for (const auto& [program, seconds] : all_) v.push_back(seconds);
  return quantile(std::move(v), p);
}

}  // namespace perfbench
