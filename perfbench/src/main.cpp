// foray_perfbench: runs one workload of the FORAY-GEN benchmark and prints
// its metrics as the last line of standard output.
//
//   foray_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics through the public driver API.
// --trace 1 interleaves untraced iterations with traced ones (the same work
// as direct layer calls) and reports the per-layer metrics, writing the
// spans to DIR/trace-NAME-seedN.json (Chrome Trace Event format).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <unistd.h>
#include <vector>

#include "machine.h"
#include "spans.h"
#include "stats.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// The gated throughput and latency figures take each program's fastest
/// iteration (quantile 0): host memory contention slows whole stretches of
/// a run, and in repeated runs of identical code a low quantile spread the
/// least, the minimum least of all.
constexpr double kLowQuantile = 0.0;
/// Set-ups per run; setup_s is their median. The first runs before the
/// first timed iteration, the others at even intervals of the loop (whose
/// deadline moves by their duration): five set-ups back to back all landed
/// in one contention state, so their median followed it.
constexpr size_t kSetups = 5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

std::string result_line(const Tally& tally,
                        const std::vector<Metric>& metrics) {
  foray::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(tally.correct());
  w.key("attempted").value(tally.attempted);
  w.key("failed").value(tally.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

/// Layer values of one traced iteration: self seconds by span name (as
/// "<name>_s"), the iteration's counts, and the derived splits.
LayerValues iteration_values(const std::vector<Span>& spans, size_t first,
                             LayerValues counts, double* work_seconds) {
  const std::vector<Span> mine(spans.begin() + static_cast<long>(first),
                               spans.end());
  const std::vector<double> self = self_times(mine);
  LayerValues v = std::move(counts);
  double probes = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < mine.size(); ++i) {
    const Span& s = mine[i];
    if (s.parent == 0) {
      total += s.seconds();
      v["driver.self_s"] += self[i];
    } else {
      v[s.name + "_s"] += self[i];
    }
    if (s.probe) probes += s.seconds();
  }
  v["foray.extract_online_s"] = v["foray.profile_s"] - v["sim.run_s"];
  v["spm.replay.exec_s"] = v["spm.replay_s"] - v["spm.replay.emit_s"] -
                           v["spm.replay.frontend_s"];
  *work_seconds = total - probes;
  return v;
}

/// Sum over programs of each program's median of `key`.
double per_pass(const std::map<size_t, std::vector<LayerValues>>& iters,
                const std::string& key) {
  double sum = 0.0;
  for (const auto& [program, values] : iters) {
    std::vector<double> xs;
    for (const LayerValues& v : values) {
      const auto it = v.find(key);
      xs.push_back(it == v.end() ? 0.0 : it->second);
    }
    sum += quantile(std::move(xs), 0.5);
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: foray_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const std::string work_dir =
      args.out_dir + "/work-" + std::to_string(::getpid());
  std::unique_ptr<Workload> wl = make_workload(args.workload, work_dir);
  if (wl == nullptr) {
    std::fprintf(stderr, "foray_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(work_dir);
  std::printf("%s\n", machine_json(probe_machine()).c_str());
  std::fflush(stdout);

  Tally tally;
  std::vector<double> setup_times;
  std::vector<Program> programs;
  // Every set-up leaves the same state: the same inputs, the same caches.
  const auto set_up = [&] {
    const double t0 = now_s();
    programs = make_inputs(args.seed, wl->generated_programs());
    wl->setup(programs);
    const double seconds = now_s() - t0;
    setup_times.push_back(seconds);
    wl->check_setup(&tally);
    return seconds;
  };
  set_up();

  // The closed loop: passes over the program set in seeded order.
  foray::util::Rng order_rng(foray::util::Rng(~args.seed).next());
  std::vector<size_t> order(programs.size());
  std::iota(order.begin(), order.end(), 0);
  IterationTimes untraced;
  std::map<size_t, std::vector<double>> traced_work;
  std::map<size_t, std::vector<LayerValues>> layers;
  std::map<size_t, bool> body_checked;
  DigestCheck digests;
  SpanRecorder rec;
  uint64_t request = 0;
  const uint64_t per_iter = wl->points_per_iteration();

  const auto account = [&](size_t p, const IterOutput& out) {
    tally.attempted += out.points;
    if (!out.ok) tally.failed += out.points;
    if (!body_checked[p]) {
      body_checked[p] = true;
      check_body(out.body, per_iter, &tally);
    }
    tally.add(digests.check(programs[p].name, digest(out.body)));
  };

  const auto run_untraced = [&](size_t p) {
    wl->before_iteration();
    const double t0 = now_s();
    const IterOutput out = wl->run(p);
    untraced.add(p, now_s() - t0);
    account(p, out);
  };
  const auto run_traced = [&](size_t p) {
    wl->before_iteration();
    rec.set_request(++request);
    const size_t first = rec.spans().size();
    LayerValues counts;
    IterOutput out;
    {
      ScopedSpan span(&rec, "driver.iteration");
      out = wl->run_traced(p, &rec, &counts, &tally);
    }
    account(p, out);
    double work = 0.0;
    layers[p].push_back(
        iteration_values(rec.spans(), first, std::move(counts), &work));
    traced_work[p].push_back(work);
  };

  const double start = now_s();
  double paused = 0.0;  // time spent in set-ups during the loop
  const auto loop_seconds = [&] { return now_s() - start - paused; };
  bool done = false;
  for (size_t pass = 0; !done; ++pass) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    }
    for (size_t p : order) {
      if (!args.trace) {
        run_untraced(p);
      } else if (pass % 2 == 0) {
        // Alternate which of the pair runs first, so that neither gets
        // the caches the other warmed on every pass.
        run_untraced(p);
        run_traced(p);
      } else {
        run_traced(p);
        run_untraced(p);
      }
      if (setup_times.size() < kSetups &&
          loop_seconds() >= args.seconds * static_cast<double>(
                                               setup_times.size()) /
                                 kSetups) {
        paused += set_up();
      }
      if (pass > 0 && loop_seconds() >= args.seconds) {
        done = true;
        break;
      }
    }
    if (loop_seconds() >= args.seconds) done = true;
  }
  while (setup_times.size() < kSetups) set_up();  // a loop shorter than a pass
  std::filesystem::remove_all(work_dir);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double points_per_pass =
        static_cast<double>(per_iter * programs.size());
    metrics = {
        {"setup_s", quantile(setup_times, 0.5), "s"},
        {"points_per_s",
         ratio(points_per_pass, untraced.pass_seconds(kLowQuantile)), "1/s"},
        {"request_p50_ms", untraced.request_quantile(0.5, kLowQuantile) * 1e3,
         "ms"},
        {"request_p90_ms", untraced.request_quantile(0.9, kLowQuantile) * 1e3,
         "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"ok_ratio",
         ratio(static_cast<double>(tally.attempted - tally.failed),
               static_cast<double>(tally.attempted)),
         "ratio"},
    };
    std::string setups;
    for (double t : setup_times) setups += " " + std::to_string(t);
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu iterations, pass at "
                 "min/p10/p25/p50 %.4f/%.4f/%.4f/%.4f s; set-ups%s s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 untraced.iterations(), untraced.pass_seconds(0.0),
                 untraced.pass_seconds(0.1), untraced.pass_seconds(0.25),
                 untraced.pass_seconds(0.5), setups.c_str());
  } else {
    const auto s = [&](const std::string& k) { return per_pass(layers, k); };
    double overhead = -untraced.pass_seconds(0.5);
    for (const auto& [p, work] : traced_work) overhead += quantile(work, 0.5);
    metrics = {
        {"minic.frontend_s", s("minic.frontend_s"), "s"},
        {"instrument.annotate_s", s("instrument.annotate_s"), "s"},
        {"sim.compile_s", s("sim.compile_s"), "s"},
        {"sim.run_s", s("sim.run_s"), "s"},
        {"sim.records", s("sim.records"), "count"},
        {"sim.steps", s("sim.steps"), "count"},
        {"sim.records_per_s", ratio(s("sim.records"), s("sim.run_s")), "1/s"},
        {"foray.extract_online_s", s("foray.extract_online_s"), "s"},
        {"foray.build_emit_s", s("foray.build_emit_s"), "s"},
        {"foray.model_refs", s("foray.model_refs"), "count"},
        {"foray.model_io_s", s("foray.model_io_s"), "s"},
        {"jit.profile_s", s("jit.profile_s"), "s"},
        {"driver.model_cache.lookup_s", s("driver.model_cache.lookup_s"),
         "s"},
        {"driver.model_cache.store_s", s("driver.model_cache.store_s"), "s"},
        {"driver.model_cache.hit_ratio",
         ratio(s("driver.model_cache.hits"), s("driver.model_cache.lookups")),
         "ratio"},
        {"spm.candidates_s", s("spm.candidates_s"), "s"},
        {"spm.candidates", s("spm.candidates"), "count"},
        {"spm.dp_s", s("spm.dp_s"), "s"},
        {"spm.greedy_s", s("spm.greedy_s"), "s"},
        {"spm.energy_s", s("spm.energy_s"), "s"},
        {"spm.cache_sim_s", s("spm.cache_sim_s"), "s"},
        {"spm.cache_accesses", s("spm.cache_accesses"), "count"},
        {"spm.replay_s", s("spm.replay_s"), "s"},
        {"spm.replay.emit_s", s("spm.replay.emit_s"), "s"},
        {"spm.replay.frontend_s", s("spm.replay.frontend_s"), "s"},
        {"spm.replay.exec_s", s("spm.replay.exec_s"), "s"},
        {"spm.replay_runs", s("spm.replay_runs"), "count"},
        {"spm.replay_distinct", s("spm.replay_distinct"), "count"},
        {"spm.replay_useful_ratio",
         ratio(s("spm.replay_distinct"), s("spm.replay_runs")), "ratio"},
        {"staticforay.lint_s", s("staticforay.lint_s"), "s"},
        {"driver.render_s", s("driver.render_s"), "s"},
        {"driver.self_s", s("driver.self_s"), "s"},
        {"driver.iter_p50_s", untraced.raw_quantile(0.5), "s"},
        {"driver.iter_p90_s", untraced.raw_quantile(0.9), "s"},
        {"trace.overhead_s", overhead, "s"},
    };
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream trace_out(path);
    write_chrome_trace(trace_out, rec.spans());
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 rec.spans().size(), path.c_str());
  }
  std::printf("%s\n", result_line(tally, metrics).c_str());
  return tally.correct() ? 0 : 1;
}
