// The machine a run measured on, recorded with every run.
#pragma once

#include <string>

namespace perfbench {

struct Machine {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string build_type;
  std::string default_engine;
  /// Speed-up of `nproc` threads over one on a short calibration spin:
  /// nproc x (1-thread time) / (nproc-thread time). Near nproc on an idle
  /// machine; near 1 when the other CPUs are taken by neighbours.
  double effective_parallelism = 0.0;
};

/// Probes the machine; runs the calibration spin (a fraction of a second).
Machine probe_machine();

/// The `{"machine": {...}}` line printed before a run's result.
std::string machine_json(const Machine& m);

/// Peak resident memory of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
