#include "machine.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "sim/interpreter.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

const char* engine_name(foray::sim::Engine e) {
  switch (e) {
    case foray::sim::Engine::Ast: return "ast";
    case foray::sim::Engine::Bytecode: return "bytecode";
    case foray::sim::Engine::Jit: return "jit";
  }
  return "unknown";
}

/// A fixed amount of L1-resident integer work; the result is returned so
/// the loop cannot be folded away.
uint64_t spin(uint64_t rounds) {
  uint64_t table[512];
  for (uint64_t i = 0; i < 512; ++i) table[i] = i * 0x9e3779b97f4a7c15ull;
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 511] += x;
  }
  return x ^ table[rounds & 511];
}

/// Wall time of `threads` concurrent spins of `rounds` each.
double spin_seconds(unsigned threads, uint64_t rounds) {
  std::vector<uint64_t> sink(threads);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, rounds] { sink[t] = spin(rounds); });
  }
  for (auto& th : pool) th.join();
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  volatile uint64_t keep = 0;
  for (uint64_t v : sink) keep = keep + v;
  return s;
}

}  // namespace

Machine probe_machine() {
  Machine m;
  m.cpu_model = cpu_brand();
  m.nproc = std::max(1u, std::thread::hardware_concurrency());
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.default_engine = engine_name(foray::sim::default_engine());
  constexpr uint64_t kRounds = 40'000'000;  // ~0.1 s on one core
  double one = 0.0;
  double all = 0.0;
  for (int rep = 0; rep < 2; ++rep) {  // best of two against stray bursts
    const double a = spin_seconds(1, kRounds);
    const double b = spin_seconds(m.nproc, kRounds);
    one = rep == 0 ? a : std::min(one, a);
    all = rep == 0 ? b : std::min(all, b);
  }
  m.effective_parallelism = all > 0.0 ? m.nproc * one / all : 0.0;
  return m;
}

std::string machine_json(const Machine& m) {
  foray::util::JsonWriter w;
  w.begin_object();
  w.key("machine").begin_object();
  w.key("cpu_model").value(m.cpu_model);
  w.key("nproc").value(m.nproc);
  w.key("build_type").value(m.build_type);
  w.key("default_engine").value(m.default_engine);
  w.key("effective_parallelism").value(m.effective_parallelism);
  w.end_object();
  w.end_object();
  return w.take();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
