// The benchmark's inputs and its three workloads.
//
// Every workload does its set-up, then a closed loop of iterations: one
// client, one worker thread, the next iteration only after the previous
// one finished. An iteration is one program of the input set under the
// workload's grid — a `run_ndjson` sweep for the two sweep workloads, one
// `serve_loop` request for the serve workload — and the programs are
// visited in passes, each pass in a seeded order.
//
// Untraced iterations go through the public driver API. Traced ones
// re-issue the same work (same job, grid and cache state) as direct calls
// into each layer, with a span around every call, and must produce
// byte-identical NDJSON.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/generator.h"
#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "foray/model.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// One program of the input set.
struct Program {
  std::string name;
  std::string source;
  /// Ground truth of a generated program; empty for benchsuite kernels.
  std::vector<foray::benchsuite::ExpectedNest> truth;
};

/// Generated programs per input set, and the generator parameters.
inline constexpr int kGeneratedPrograms = 3;
foray::benchsuite::GeneratorOptions generator_options(uint64_t seed);
/// Generated programs are kept only when their nests perform this many
/// accesses in total (about 1.8M trace records each), so that the work of
/// an input set, and with it every figure, barely depends on the seed:
/// unbounded, one program's Phase I ranges over 100x across seeds.
inline constexpr uint64_t kMinGeneratedAccesses = 171'000;
inline constexpr uint64_t kMaxGeneratedAccesses = 189'000;

/// The six benchsuite kernels plus `generated` programs drawn from `seed`.
/// The same seed always gives the same inputs.
std::vector<Program> make_inputs(uint64_t seed,
                                 int generated = kGeneratedPrograms);

/// Ground-truth nests of `truth` that `model` does not realize exactly
/// (coefficients, trip counts and execution count of a written
/// reference).
size_t missing_nests(const foray::core::ForayModel& model,
                     const std::vector<foray::benchsuite::ExpectedNest>& truth);

/// Checks a sweep NDJSON body: `points` point rows, every one ok, every
/// replay check ok. Adds one check per row to `tally`; false on any miss.
bool check_body(const std::string& body, uint64_t points, Tally* tally);

/// What one iteration produced.
struct IterOutput {
  std::string body;     ///< the sweep NDJSON of the iteration
  uint64_t points = 0;  ///< grid points attempted
  bool ok = false;      ///< driver status (serve: the done row)
};

/// Per-iteration layer times (self seconds by span name) and counts.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed iteration; run several times, the
  /// state of the last call is what the iterations use.
  virtual void setup(const std::vector<Program>& programs) = 0;
  /// Output checks on the set-up state (the models against ground truth).
  virtual void check_setup(Tally* tally) = 0;
  /// Untimed housekeeping before every iteration.
  virtual void before_iteration() {}
  /// One iteration through the public driver API.
  virtual IterOutput run(size_t program) = 0;
  /// The same iteration as direct calls into each layer, traced.
  /// Output checks made on the way are added to `tally`.
  virtual IterOutput run_traced(size_t program, SpanRecorder* rec,
                                LayerValues* counts, Tally* tally) = 0;

  virtual uint64_t points_per_iteration() const = 0;
  /// Generated programs in this workload's input set.
  virtual int generated_programs() const { return kGeneratedPrograms; }
};

/// The workload called `name` (nullptr if unknown); its files go under
/// `work_dir`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir);

/// The traced re-issue of one single-job sweep (layers.cpp): model-cache
/// lookup, Phase I on a miss (plus a store), candidate enumeration, then
/// every solve group of the grid `spec` expands to — DP, greedy, energy,
/// cache simulation and transform replay as the grid asks — and the NDJSON
/// rendering.
/// `jit_probe` also times Phase I profiling on the JIT engine.
std::string traced_sweep(const foray::driver::SweepJob& job,
                         const foray::driver::SweepSpec& spec,
                         const foray::core::PipelineOptions& pipeline,
                         foray::driver::ModelCache* cache, bool jit_probe,
                         SpanRecorder* rec, LayerValues* counts,
                         Tally* tally);

}  // namespace perfbench
