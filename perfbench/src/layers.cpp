// The traced re-issue of a single-job sweep: the work SweepDriver does for
// one job, spelled out as direct calls into each layer with a span around
// every call. The rendered NDJSON must equal the untraced iteration's byte
// for byte, which is what ties these layer times to the measured path.
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "foray/model_io.h"
#include "foray/pipeline.h"
#include "sim/bytecode.h"
#include "spm/address_stream.h"
#include "spm/cache_sim.h"
#include "spm/dse.h"
#include "spm/replay.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "spm/transform.h"
#include "trace/sink.h"
#include "workloads.h"

namespace perfbench {

using foray::core::ForayModel;
using foray::core::PipelineOptions;
using foray::core::PipelineResult;
using foray::core::SpmReport;
using foray::driver::SweepGrid;
using foray::driver::SweepItem;
using foray::driver::SweepPoint;

namespace {

/// Phase I of one job on a model-cache miss; returns false on failure.
bool phase1(const std::string& source, const PipelineOptions& pipeline,
            bool jit_probe, SpanRecorder* rec, LayerValues* counts,
            Tally* tally, ForayModel* model) {
  PipelineResult res;
  {
    ScopedSpan span(rec, "minic.frontend");
    if (!tally->add(foray::core::frontend_phase(source, &res).ok())) {
      return false;
    }
  }
  {
    ScopedSpan span(rec, "instrument.annotate");
    foray::core::instrument_phase(&res);
  }
  {
    ScopedSpan span(rec, "foray.profile");
    if (!tally->add(foray::core::profile_phase(pipeline, &res).ok())) {
      return false;
    }
  }
  {
    ScopedSpan span(rec, "foray.build_emit");
    foray::core::extract_phase(pipeline, &res);
  }
  (*counts)["foray.model_refs"] += static_cast<double>(res.model.refs.size());
  // Probes, after the real calls so that they do not warm them: the real
  // path compiles inside the simulator call, runs the simulator fused with
  // the online extractor and never round-trips the model on a miss.
  {
    ScopedSpan span(rec, "sim.compile", /*probe=*/true);
    foray::sim::compile_program(*res.program);
  }
  foray::trace::CountingSink counter;
  foray::sim::RunResult run;
  {
    ScopedSpan span(rec, "sim.run", /*probe=*/true);
    run = foray::sim::run_program(*res.program, &counter, pipeline.run);
  }
  (*counts)["sim.records"] += static_cast<double>(counter.total());
  (*counts)["sim.steps"] += static_cast<double>(run.steps);
  // The simulator's record stream is the extractor's input either way.
  tally->add(res.trace_records == counter.total());
  {
    ScopedSpan span(rec, "foray.model_io", /*probe=*/true);
    ForayModel decoded;
    const std::string bytes = foray::core::model_to_bytes(res.model);
    tally->add(foray::core::model_from_bytes(bytes, &decoded).ok() &&
               decoded.refs.size() == res.model.refs.size());
  }
  if (jit_probe) {
    PipelineResult jit;
    PipelineOptions jit_opts = pipeline;
    jit_opts.run.engine = foray::sim::Engine::Jit;
    {
      ScopedSpan span(rec, "jit.prepare", /*probe=*/true);
      foray::core::frontend_phase(source, &jit);
      foray::core::instrument_phase(&jit);
    }
    {
      ScopedSpan span(rec, "jit.profile", /*probe=*/true);
      tally->add(foray::core::profile_phase(jit_opts, &jit).ok());
    }
    // Engines are bit-identical by contract: same record stream.
    tally->add(jit.trace_records == res.trace_records);
  }
  *model = std::move(res.model);
  return true;
}

/// A selection's identity, for counting distinct replays.
std::vector<std::tuple<size_t, int, uint64_t, bool>> selection_id(
    const foray::spm::Selection& sel) {
  std::vector<std::tuple<size_t, int, uint64_t, bool>> id;
  for (const auto& c : sel.chosen) {
    id.emplace_back(c.ref_index, c.level, c.size_bytes, c.sliding_window);
  }
  return id;
}

bool same_solve(const SweepPoint& a, const SweepPoint& b) {
  return a.key.capacity == b.key.capacity && a.key.energy == b.key.energy &&
         a.key.cache == b.key.cache && a.replay == b.replay;
}

}  // namespace

std::string traced_sweep(const foray::driver::SweepJob& job,
                         const foray::driver::SweepSpec& spec,
                         const PipelineOptions& pipeline,
                         foray::driver::ModelCache* cache, bool jit_probe,
                         SpanRecorder* rec, LayerValues* counts,
                         Tally* tally) {
  const SweepGrid grid = SweepGrid::expand(spec, pipeline);
  const std::string key = foray::driver::ModelCache::key(job.source, pipeline);
  ForayModel model;
  bool hit = false;
  {
    ScopedSpan span(rec, "driver.model_cache.lookup");
    foray::util::Status why;
    hit = cache->lookup(key, &model, &why);
    tally->add(why.ok());
  }
  (*counts)["driver.model_cache.lookups"] += 1;
  (*counts)["driver.model_cache.hits"] += hit ? 1 : 0;
  if (!hit) {
    if (!phase1(job.source, pipeline, jit_probe, rec, counts, tally, &model)) {
      return "";
    }
    ScopedSpan span(rec, "driver.model_cache.store");
    cache->store(key, model);
  }

  std::vector<foray::spm::BufferCandidate> candidates;
  {
    ScopedSpan span(rec, "spm.candidates");
    candidates = foray::spm::enumerate_candidates(model, pipeline.spm.reuse);
  }
  (*counts)["spm.candidates"] += static_cast<double>(candidates.size());

  std::vector<SweepItem> items(grid.points.size());
  std::set<std::vector<std::tuple<size_t, int, uint64_t, bool>>> replayed;
  for (size_t begin = 0; begin < grid.points.size();) {
    size_t end = begin + 1;
    while (end < grid.points.size() &&
           same_solve(grid.points[begin], grid.points[end])) {
      ++end;
    }
    const SweepPoint& head = grid.points[begin];
    const foray::core::SpmPhaseOptions popts = head.spm_options(pipeline.spm);
    SpmReport rep;
    rep.capacity = popts.dse.spm_capacity;
    {
      ScopedSpan span(rec, "spm.dp");
      rep.exact = foray::spm::select_buffers(candidates, popts.dse);
    }
    {
      ScopedSpan span(rec, "spm.greedy");
      rep.greedy = foray::spm::select_buffers_greedy(candidates, popts.dse);
    }
    {
      ScopedSpan span(rec, "spm.energy");
      rep.baseline = foray::spm::evaluate_baseline(model, popts.dse.energy);
      rep.with_spm = foray::spm::evaluate_selection(model, rep.exact, popts.dse);
    }
    if (popts.compare_cache) {
      for (int assoc : popts.cache_assocs) {
        ScopedSpan span(rec, "spm.cache_sim");
        foray::spm::CacheSim sim(foray::spm::CacheConfig{
            popts.dse.spm_capacity, popts.cache_line_bytes, assoc});
        const uint64_t n = foray::spm::for_each_address(
            model, [&](uint32_t addr) { sim.access(addr); });
        (*counts)["spm.cache_accesses"] += static_cast<double>(n);
        rep.caches.push_back(SpmReport::CacheComparison{
            assoc, sim.hits(), sim.misses(),
            sim.energy_nj(popts.dse.energy)});
      }
    }
    foray::spm::ReplayReport replay;
    if (head.replay) {
      foray::spm::ReplayOptions ropts;
      ropts.run = pipeline.run;
      ropts.dse = popts.dse;
      {
        ScopedSpan span(rec, "spm.replay");
        replay = foray::spm::replay_selection(model, rep.exact, ropts);
      }
      tally->add(replay.matches());
      // Probes: the emitter and the front end run inside replay_selection;
      // the remainder of the replay span is the transformed program's run.
      std::string text;
      {
        ScopedSpan span(rec, "spm.replay.emit", /*probe=*/true);
        text = foray::spm::emit_transformed(model, rep.exact, ropts.transform);
      }
      {
        ScopedSpan span(rec, "spm.replay.frontend", /*probe=*/true);
        PipelineResult parsed;
        tally->add(foray::core::frontend_phase(text, &parsed).ok());
      }
      (*counts)["spm.replay_runs"] += 1;
      replayed.insert(selection_id(rep.exact));
    }
    for (size_t i = begin; i < end; ++i) {
      const SweepPoint& point = grid.points[i];
      SweepItem& item = items[i];
      item.program = job.name;
      item.key = point.key;
      item.point = point;
      item.model_refs = model.refs.size();
      item.candidate_count = candidates.size();
      item.spm = rep;
      if (point.algorithm == foray::driver::Algorithm::kGreedy) {
        ScopedSpan span(rec, "spm.energy");
        item.energy = foray::spm::evaluate_selection(
            model, rep.greedy, point.spm_options(pipeline.spm).dse);
      } else {
        item.energy = rep.with_spm;
      }
      item.replay_ran = head.replay;
      if (head.replay) item.replay = replay;
    }
    begin = end;
  }
  (*counts)["spm.replay_distinct"] += static_cast<double>(replayed.size());

  ScopedSpan span(rec, "driver.render");
  foray::driver::SweepReport report;
  report.grid = grid;
  report.programs = {job.name};
  report.items = std::move(items);
  std::ostringstream out;
  report.write_ndjson(out);
  return out.str();
}

}  // namespace perfbench
