#include "workloads.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "benchsuite/suite.h"
#include "driver/serve.h"
#include "staticforay/checker.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using foray::core::ForayModel;
using foray::core::PipelineOptions;
using foray::driver::ModelCache;
using foray::driver::ModelCacheOptions;
using foray::driver::SweepDriver;
using foray::driver::SweepJob;
using foray::driver::SweepOptions;
using foray::driver::SweepSpec;

foray::benchsuite::GeneratorOptions generator_options(uint64_t seed) {
  foray::benchsuite::GeneratorOptions g;
  g.seed = seed;
  g.num_nests = 6;
  g.max_depth = 3;
  g.min_trip = 24;
  g.max_trip = 64;
  return g;
}

std::vector<Program> make_inputs(uint64_t seed, int generated) {
  std::vector<Program> programs;
  for (const auto& b : foray::benchsuite::all_benchmarks()) {
    programs.push_back(Program{b.name, b.source, {}});
  }
  // Seeded through one splitmix step, so that neighbouring seeds do not
  // give shifted copies of one stream.
  foray::util::Rng rng(foray::util::Rng(seed).next());
  const size_t want = programs.size() + static_cast<size_t>(generated);
  while (programs.size() < want) {
    const uint64_t gen_seed = rng.next();
    foray::benchsuite::GeneratedProgram gen =
        foray::benchsuite::generate_affine_program(generator_options(gen_seed));
    uint64_t accesses = 0;
    for (const auto& nest : gen.nests) accesses += nest.accesses();
    if (accesses < kMinGeneratedAccesses || accesses > kMaxGeneratedAccesses) {
      continue;
    }
    programs.push_back(Program{"gen-" + foray::util::hex64(gen_seed),
                               std::move(gen.source), std::move(gen.nests)});
  }
  return programs;
}

size_t missing_nests(
    const ForayModel& model,
    const std::vector<foray::benchsuite::ExpectedNest>& truth) {
  size_t missing = 0;
  for (const auto& nest : truth) {
    std::vector<int64_t> byte_coefs;
    for (int64_t c : nest.elem_coefs) byte_coefs.push_back(c * 4);
    bool found = false;
    for (const auto& ref : model.refs) {
      if (ref.has_write && !ref.partial() &&
          ref.emitted_trips() == nest.trips &&
          ref.emitted_coefs() == byte_coefs &&
          ref.exec_count == nest.accesses()) {
        found = true;
        break;
      }
    }
    if (!found) ++missing;
  }
  return missing;
}

bool check_body(const std::string& body, uint64_t points, Tally* tally) {
  std::istringstream in(body);
  std::string line;
  uint64_t seen = 0;
  bool ok = true;
  while (std::getline(in, line)) {
    foray::util::JsonValue row;
    std::string err;
    if (!tally->add(foray::util::parse_json(line, &row, &err))) {
      ok = false;
      continue;
    }
    const foray::util::JsonValue* kind = row.find("kind");
    if (kind == nullptr || kind->str != "point") continue;
    ++seen;
    const foray::util::JsonValue* row_ok = row.find("ok");
    bool good = row_ok != nullptr && row_ok->is_bool() && row_ok->b;
    if (const auto* replay = row.find("replay_check"); replay != nullptr) {
      const foray::util::JsonValue* matched = replay->find("ok");
      good = good && matched != nullptr && matched->is_bool() && matched->b;
    }
    ok = tally->add(good) && ok;
  }
  return tally->add(seen == points) && ok;
}

namespace {

SweepSpec make_spec(
    const std::vector<std::pair<std::string, std::string>>& axes) {
  SweepSpec spec;
  for (const auto& [axis, values] : axes) {
    const foray::util::Status st = spec.parse_axis(axis, values);
    FORAY_CHECK(st.ok(), "perfbench: bad axis " + axis + ": " + st.message());
  }
  return spec;
}

/// The Phase I options every workload runs with: the defaults, with
/// Phase II on as the sweep driver forces it (the model-cache key is
/// computed from these).
PipelineOptions sweep_pipeline() {
  PipelineOptions p;
  p.with_spm = true;
  return p;
}

/// Checks that set-up left every program's model in `cache`, and the
/// generated programs' models against their ground truth.
void check_models(const std::vector<Program>& programs, ModelCache* cache,
                  Tally* tally) {
  for (const Program& prog : programs) {
    ForayModel model;
    foray::util::Status why;
    const bool hit =
        cache->lookup(ModelCache::key(prog.source, sweep_pipeline()), &model,
                      &why);
    tally->add(hit && missing_nests(model, prog.truth) == 0);
  }
}

std::vector<SweepJob> jobs_of(const std::vector<Program>& programs) {
  std::vector<SweepJob> jobs;
  for (const Program& p : programs) jobs.push_back(SweepJob{p.name, p.source});
  return jobs;
}

/// A single-program sweep with `cache` through the public driver API.
IterOutput sweep_once(const SweepJob& job, const SweepSpec& spec,
                      ModelCache* cache) {
  SweepOptions opts;
  opts.threads = 1;
  opts.spec = spec;
  opts.model_cache = cache;
  SweepDriver driver(std::move(opts));
  std::ostringstream out;
  IterOutput it;
  it.ok = driver.run_ndjson({job}, out).ok();
  it.points = driver.grid().points_per_job();
  it.body = out.str();
  return it;
}

/// sweep_cold: every iteration starts from an emptied disk cache, so
/// every job misses, runs Phase I and stores its model. Phase I (sim +
/// online extraction) is most of the iteration; Phase II is small.
class SweepCold final : public Workload {
 public:
  explicit SweepCold(std::string work_dir)
      : dir_(std::move(work_dir) + "/cold-cache"),
        spec_(make_spec({{"capacity", "1024,4096,16384"}})) {}

  void setup(const std::vector<Program>& programs) override {
    jobs_ = jobs_of(programs);
    programs_ = programs;
    fs::remove_all(dir_);
    // One cold pass: every program's path runs once before timing.
    for (const SweepJob& job : jobs_) {
      ModelCache cache(ModelCacheOptions{dir_, true, 0});
      sweep_once(job, spec_, &cache);
    }
  }
  void check_setup(Tally* tally) override {
    ModelCache cache(ModelCacheOptions{dir_, false, 0});
    check_models(programs_, &cache, tally);
  }
  void before_iteration() override { fs::remove_all(dir_); }
  IterOutput run(size_t program) override {
    ModelCache cache(ModelCacheOptions{dir_, true, 0});
    return sweep_once(jobs_[program], spec_, &cache);
  }
  IterOutput run_traced(size_t program, SpanRecorder* rec,
                        LayerValues* counts, Tally* tally) override {
    ModelCache cache(ModelCacheOptions{dir_, true, 0});
    IterOutput it;
    it.body = traced_sweep(jobs_[program], spec_, sweep_pipeline(), &cache,
                           /*jit_probe=*/true, rec, counts, tally);
    it.points = points_per_iteration();
    it.ok = true;
    return it;
  }
  uint64_t points_per_iteration() const override { return 3; }

 private:
  std::string dir_;
  SweepSpec spec_;
  std::vector<SweepJob> jobs_;
  std::vector<Program> programs_;
};

/// sweep_warm_replay: the disk cache is populated in set-up; every
/// iteration opens a fresh cache on it (a disk hit plus an FMDL decode,
/// like a repeated `foraygen sweep --cache-dir`) and replays every point.
/// The cache axis never changes the selection, so half of the replays
/// repeat one already run. One capacity keeps an iteration short: with
/// three, each program got a third as many iterations per run and its
/// fastest one, the gated figure, spread about half as much again. It runs
/// on the benchsuite kernels alone: about a third of generated programs
/// select SPM buffers refilled every outer iteration, which doubles their
/// replay, and that draw spread this workload's figures 10-25% by seed.
class SweepWarmReplay final : public Workload {
 public:
  explicit SweepWarmReplay(std::string work_dir)
      : dir_(std::move(work_dir) + "/warm-cache"),
        cold_spec_(make_spec({{"capacity", "1024,4096,16384"}})),
        spec_(make_spec({{"capacity", "4096"},
                         {"cache", "off,32x2"},
                         {"replay", "on"}})) {}

  void setup(const std::vector<Program>& programs) override {
    jobs_ = jobs_of(programs);
    programs_ = programs;
    fs::remove_all(dir_);
    ModelCache cache(ModelCacheOptions{dir_, true, 0});
    SweepOptions opts;
    opts.threads = 1;
    opts.spec = cold_spec_;
    opts.model_cache = &cache;
    std::ostringstream out;
    SweepDriver(std::move(opts)).run_ndjson(jobs_, out);
  }
  void check_setup(Tally* tally) override {
    ModelCache cache(ModelCacheOptions{dir_, false, 0});
    check_models(programs_, &cache, tally);
  }
  IterOutput run(size_t program) override {
    ModelCache cache(ModelCacheOptions{dir_, true, 0});
    return sweep_once(jobs_[program], spec_, &cache);
  }
  IterOutput run_traced(size_t program, SpanRecorder* rec,
                        LayerValues* counts, Tally* tally) override {
    ModelCache cache(ModelCacheOptions{dir_, true, 0});
    IterOutput it;
    it.body = traced_sweep(jobs_[program], spec_, sweep_pipeline(), &cache,
                           /*jit_probe=*/false, rec, counts, tally);
    it.points = points_per_iteration();
    it.ok = true;
    return it;
  }
  uint64_t points_per_iteration() const override { return 2; }
  int generated_programs() const override { return 0; }

 private:
  std::string dir_;
  SweepSpec cold_spec_;
  SweepSpec spec_;
  std::vector<SweepJob> jobs_;
  std::vector<Program> programs_;
};

/// serve_warm_dse: one serve_loop call per single-line request, all
/// sharing one long-lived in-memory model cache (memory hits) with static
/// admission on. No Phase I and no replay: DP, cache simulation, lint
/// admission and NDJSON rendering are the work.
class ServeWarmDse final : public Workload {
 public:
  static constexpr const char* kAxes[][2] = {
      {"capacity", "512,1024,2048,4096,8192,16384"},
      {"energy", "default,dram-heavy"},
      {"algorithm", "dp,greedy"},
      {"cache", "off,32x2"}};

  ServeWarmDse() {
    std::vector<std::pair<std::string, std::string>> axes;
    for (const auto& a : kAxes) axes.emplace_back(a[0], a[1]);
    spec_ = make_spec(axes);
  }

  void setup(const std::vector<Program>& programs) override {
    programs_ = programs;
    jobs_ = jobs_of(programs);
    cache_ = std::make_unique<ModelCache>(ModelCacheOptions{"", true, 0});
    requests_.clear();
    for (size_t i = 0; i < programs.size(); ++i) {
      requests_.push_back(request_line(i, false));
    }
    // Warm the shared cache: one single-point request per program runs
    // its Phase I once.
    for (size_t i = 0; i < programs.size(); ++i) {
      serve(request_line(i, true));
    }
  }
  void check_setup(Tally* tally) override {
    check_models(programs_, cache_.get(), tally);
  }
  IterOutput run(size_t program) override {
    return serve(requests_[program]);
  }
  IterOutput run_traced(size_t program, SpanRecorder* rec,
                        LayerValues* counts, Tally* tally) override {
    const SweepJob& job = jobs_[program];
    {
      ScopedSpan span(rec, "staticforay.lint");
      foray::staticforay::CheckReport rep;
      tally->add(foray::staticforay::lint_source(job.source, &rep).ok());
    }
    IterOutput it;
    it.body = traced_sweep(job, spec_, sweep_pipeline(), cache_.get(),
                           /*jit_probe=*/false, rec, counts, tally);
    it.points = points_per_iteration();
    it.ok = true;
    return it;
  }
  uint64_t points_per_iteration() const override { return 48; }

 private:
  std::string request_line(size_t program, bool warmup) const {
    const Program& p = programs_[program];
    foray::util::JsonWriter w;
    w.begin_object();
    w.key("id").value(static_cast<uint64_t>(program));
    w.key("axes").begin_object();
    if (warmup) {
      w.key("capacity").value("1024");
    } else {
      for (const auto& a : kAxes) w.key(a[0]).value(a[1]);
    }
    w.end_object();
    if (p.truth.empty()) {
      w.key("program").value(p.name);
    } else {
      w.key("name").value(p.name);
      w.key("source").value(p.source);
    }
    w.end_object();
    return w.take();
  }

  /// One request through serve_loop; the body is the response without
  /// its ack (first) and done (last) rows.
  IterOutput serve(const std::string& request) {
    foray::driver::ServeOptions opts;
    opts.threads = 1;
    opts.model_cache = cache_.get();
    opts.static_admission = true;
    std::istringstream in(request + "\n");
    std::ostringstream out;
    foray::driver::serve_loop(in, out, opts);
    const std::string response = out.str();
    IterOutput it;
    it.points = points_per_iteration();
    const size_t body_start = response.find('\n');
    const size_t done_start =
        response.size() < 2 ? std::string::npos
                            : response.rfind('\n', response.size() - 2);
    if (body_start == std::string::npos || done_start == std::string::npos ||
        done_start < body_start) {
      return it;
    }
    it.body = response.substr(body_start + 1, done_start - body_start);
    foray::util::JsonValue done;
    std::string err;
    if (foray::util::parse_json(response.substr(done_start + 1), &done,
                                &err)) {
      const foray::util::JsonValue* ok = done.find("ok");
      it.ok = ok != nullptr && ok->is_bool() && ok->b;
    }
    return it;
  }

  SweepSpec spec_;
  std::vector<Program> programs_;
  std::vector<SweepJob> jobs_;
  std::vector<std::string> requests_;
  std::unique_ptr<ModelCache> cache_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir) {
  if (name == "sweep_cold") return std::make_unique<SweepCold>(work_dir);
  if (name == "sweep_warm_replay") {
    return std::make_unique<SweepWarmReplay>(work_dir);
  }
  if (name == "serve_warm_dse") return std::make_unique<ServeWarmDse>();
  return nullptr;
}

}  // namespace perfbench
