// One program's journey through the phase pipeline.
//
// A Session owns the source text, the options and every phase artifact
// for a single MiniC program, so the CLI, the bench binaries and the
// batch driver all share one code path instead of each hand-rolling
// run_pipeline + spm calls. Sessions are single-threaded objects; the
// sweep driver gives each worker its own.
#pragma once

#include <string>

#include "foray/pipeline.h"
#include "util/status.h"

namespace foray::driver {

struct SessionOptions {
  /// Full phase configuration. A session's Phase I is one sequential
  /// pass; parallelism lives a level up, where SweepDriver threads run
  /// whole sessions.
  core::PipelineOptions pipeline;
};

class Session {
 public:
  Session(std::string name, std::string source, SessionOptions opts = {});

  const std::string& name() const { return name_; }
  const SessionOptions& options() const { return opts_; }

  /// Runs every phase (Frontend..Extract, plus SpmPhase when
  /// options().pipeline.with_spm). Idempotent: later calls return the
  /// stored status without re-running. Internal errors (FORAY_CHECK) are
  /// converted into a failed Status rather than escaping, so one broken
  /// session never takes down a batch.
  const util::Status& run();

  /// Installs a previously-extracted model (a model-cache hit) instead of
  /// running Phase I. The session becomes ran() with an ok status and
  /// model_built, so Phase II can solve over it immediately; the
  /// simulator-side artifacts (run counters, trace, extractor) stay
  /// empty — from_cache() tells reporting code apart. Only legal before
  /// run().
  void adopt_model(core::ForayModel model);
  bool from_cache() const { return adopted_; }

  bool ran() const { return ran_; }
  const util::Status& status() const { return result_.status; }
  const core::PipelineResult& result() const { return result_; }

  /// Moves the result out, for callers whose artifacts outlive the
  /// session (bench_util). The session stays ran() but holds an empty
  /// result afterwards.
  core::PipelineResult take_result() { return std::move(result_); }

  /// Deterministic text report of the current SpmReport (empty when the
  /// SpmPhase has not run).
  std::string spm_report_text() const;

 private:
  std::string name_;
  std::string source_;
  SessionOptions opts_;
  core::PipelineResult result_;
  bool ran_ = false;
  bool adopted_ = false;  ///< model came from the cache, not a pipeline run
};

}  // namespace foray::driver
