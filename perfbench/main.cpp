// pcd_perfbench: the repository benchmark program (see perfbench/README.md).
//
//   pcd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--out-dir DIR]
//
// Runs the workload's iterations for S seconds (service_replay: a fixed
// number of iterations per second of S), times setups of a second instance
// of the workload between iterations (setup_s is the median), checks every
// output, and prints one JSON result line: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.
// The traced run alternates span-recording and plain iterations, runs the
// per-layer probes, and writes a Chrome-trace span file plus a per-layer
// self-time table to the output directory.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "telemetry/snapshot.hpp"

#ifndef PCD_BUILD_TYPE
#define PCD_BUILD_TYPE "unknown"
#endif
#ifndef PCD_COMPILER
#define PCD_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

constexpr int kSetupBatchesPerRound = 5;
constexpr double kSetupBatchS = 1e-4;
constexpr int kMinIterations = 3;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_sweep|service_replay "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--out-dir DIR]\n",
               argv0);
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// Work counts of the first iteration's runs, re-executed with the
/// telemetry registry on (sampler off) so the network byte counter exists.
void work_counts(const Workload& w, Metrics& m) {
  std::int64_t events = 0, transitions = 0, collisions = 0, messages = 0;
  double bytes = 0;
  for (RunJob job : w.first_iteration_jobs()) {
    job.config.telemetry.enabled = true;
    job.config.telemetry.sample = false;
    const pcd::core::RunResult r = pcd::core::run_workload(job.workload, job.config);
    events += r.events;
    transitions += r.dvs_transitions;
    collisions += r.net_collisions;
    messages += r.messages;
    if (r.telemetry) bytes += r.telemetry->metric_value("net_bytes_total", {}, 0);
  }
  m.push_back({"sim.events", static_cast<double>(events), "count"});
  m.push_back({"cpu.dvs_transitions", static_cast<double>(transitions), "count"});
  m.push_back({"net.collisions", static_cast<double>(collisions), "count"});
  m.push_back({"net.bytes", bytes, "bytes"});
  m.push_back({"mpi.messages", static_cast<double>(messages), "count"});
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string out_dir = ".bench_build/out";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      o.seconds = std::atof(v);
      have_seconds = true;
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else if (k == "--out-dir") {
      out_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace ||
      o.seconds <= 0) {
    return usage(argv[0]);
  }
  if (std::strcmp(PCD_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build: only Release builds count\n",
                 PCD_BUILD_TYPE);
    return 2;
  }
  o.threads = nproc();

  auto make_workload = [&o]() -> std::unique_ptr<Workload> {
    if (o.workload == "paper_sweep") return make_paper_sweep(o);
    if (o.workload == "service_replay") return make_service_replay(o);
    return nullptr;
  };
  std::unique_ptr<Workload> w = make_workload();
  if (!w) return usage(argv[0]);

  std::printf("{\"context\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"nproc\":%d,\"hardware_concurrency\":%u,"
              "\"build_type\":\"%s\",\"compiler\":\"%s\",\"threads_used\":%d}}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.threads, std::thread::hardware_concurrency(),
              PCD_BUILD_TYPE, PCD_COMPILER, o.threads);
  std::fflush(stdout);

  // ---- setup: sampled throughout the run, median reported -----------------
  // A second instance is set up in a short round before the first timed
  // iteration and after every one, so the samples see the host at the same
  // moments the iterations do, and the timed instance keeps its state.
  // The second instance is torn down after each batch and holds nothing
  // (no service threads, no cache files) while an iteration runs.  Setups
  // shorter than a tenth of a millisecond are timed in batches (each setup
  // of a batch replaces the one before it), so clock granularity does not
  // decide the figure; the teardown after a batch is not part of it.
  w->setup();
  std::unique_ptr<Workload> sampled = make_workload();
  const auto one_t0 = Clock::now();
  sampled->setup();
  const int batch = static_cast<int>(
      std::min(1000.0, std::ceil(kSetupBatchS / std::max(seconds_since(one_t0), 1e-9))));
  sampled->teardown();
  std::vector<double> setups;
  auto time_setups = [&] {
    if (o.trace) return;  // setup_s is an end-to-end metric
    for (int r = 0; r < kSetupBatchesPerRound; ++r) {
      const auto t0 = Clock::now();
      for (int k = 0; k < batch; ++k) sampled->setup();
      setups.push_back(seconds_since(t0) / batch);
      sampled->teardown();
    }
  };
  time_setups();

  // ---- timed phase ---------------------------------------------------------
  SpanLog& spans = SpanLog::get();
  std::vector<Iteration> iters;
  std::vector<bool> traced;
  const int fixed = w->fixed_iterations(o.seconds);
  const int min_iters = std::max(kMinIterations, fixed);
  const auto t_start = Clock::now();
  for (int i = 0; static_cast<int>(iters.size()) < min_iters ||
                  (fixed == 0 && seconds_since(t_start) < o.seconds);
       ++i) {
    // ABBA alternation, so process-age drift cancels between the traced
    // and the plain iterations.
    const bool trace_this = o.trace && (i % 4 == 1 || i % 4 == 2);
    spans.enabled = trace_this;
    Iteration it;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      Span root("bench", "bench.iteration");
      w->iterate(i, it);
    }
    it.wall_s = seconds_since(t0);
    it.cpu_s = cpu_seconds() - c0;
    if (it.op_ms.empty()) it.op_ms.push_back(it.wall_s * 1e3);  // op = iteration
    spans.enabled = false;
    iters.push_back(std::move(it));
    traced.push_back(trace_this);
    time_setups();
  }

  std::fprintf(stderr, "%zu iteration(s), wall s:", iters.size());
  for (const Iteration& it : iters) std::fprintf(stderr, " %.4f", it.wall_s);
  std::fprintf(stderr, "\n");

  Checks checks;
  w->verify(checks);
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const std::int64_t late = w->late_events(static_cast<int>(i));
    if (late >= 0) iters[i].events = late;
  }

  std::int64_t iter_attempted = 0, iter_failed = 0;
  std::vector<double> walls, cpus, ev_rates, run_rates, ops;
  for (const Iteration& it : iters) {
    iter_attempted += it.attempted;
    iter_failed += it.failed;
    walls.push_back(it.wall_s);
    cpus.push_back(it.cpu_s);
    ev_rates.push_back(static_cast<double>(it.events) / it.wall_s);
    run_rates.push_back(static_cast<double>(it.runs) / it.wall_s);
    ops.insert(ops.end(), it.op_ms.begin(), it.op_ms.end());
  }

  Metrics m;
  if (!o.trace) {
    // Iteration times are bimodal on a shared host: quiet stretches run
    // faster than the common loaded state, so the 90th percentile (and
    // the 10th for rates) is the figure that repeats from run to run.
    m.push_back({"setup_s", median(setups), "s"});
    m.push_back({"wall_s", quantile(walls, 0.9), "s"});
    m.push_back({"cpu_s", quantile(cpus, 0.9), "s"});
    m.push_back({"events_per_s", quantile(ev_rates, 0.1), "events/s"});
    m.push_back({"runs_per_s", quantile(run_rates, 0.1), "runs/s"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    m.push_back({"ok_ratio",
                 1.0 - static_cast<double>(iter_failed + checks.failed) /
                           static_cast<double>(iter_attempted + checks.attempted),
                 "ok/attempted"});
    m.push_back({"op_p90_ms", quantile(ops, 0.9), "ms"});
  } else {
    work_counts(*w, m);
    m.push_back({"core.run_s.rep1", iters.front().wall_s, "s"});
    m.push_back({"core.run_s.rep_last", iters.back().wall_s, "s"});
    m.push_back({"core.age_ratio", iters.back().wall_s / iters.front().wall_s, "ratio"});

    std::vector<double> traced_walls, plain_walls;
    for (std::size_t i = 0; i < iters.size(); ++i) {
      (traced[i] ? traced_walls : plain_walls).push_back(iters[i].wall_s);
    }
    const auto layer_times = spans.layer_times();
    for (const char* layer : {"campaign", "service"}) {
      double self_s = 0;
      for (const auto& lt : layer_times) {
        if (lt.layer == layer) self_s = lt.self_s;
      }
      m.push_back({std::string(layer) + ".span_self_s",
                   self_s / static_cast<double>(std::max<std::size_t>(1, traced_walls.size())),
                   "s"});
    }
    m.push_back({"bench.trace_overhead_s", median(traced_walls) - median(plain_walls), "s"});
    m.push_back({"bench.spans", static_cast<double>(spans.spans().size()), "count"});

    layer_probes(o, *w, m, checks);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string stem =
        out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
    write_file(stem + ".trace.json", spans.chrome_json());
    std::string table = "layer\tcalls\ttotal_s\tself_s\tself_share\n";
    double all_self = 0;
    for (const auto& lt : layer_times) all_self += lt.self_s;
    char buf[256];
    for (const auto& lt : layer_times) {
      std::snprintf(buf, sizeof buf, "%s\t%d\t%.6f\t%.6f\t%.4f\n", lt.layer.c_str(),
                    lt.calls, lt.total_s, lt.self_s,
                    all_self > 0 ? lt.self_s / all_self : 0.0);
      table += buf;
    }
    write_file(stem + ".layers.tsv", table);
    std::fprintf(stderr, "per-layer self time over %zu traced iteration(s):\n%s"
                 "spans: %s.trace.json\n",
                 traced_walls.size(), table.c_str(), stem.c_str());
  }
  w->teardown();

  const std::int64_t attempted = iter_attempted + checks.attempted;
  const std::int64_t failed = iter_failed + checks.failed;
  const bool correct = failed == 0;
  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + m[i].name + "\":{\"value\":" + json_number(m[i].value) +
            ",\"unit\":\"" + m[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
