// Per-layer probes of the traced run.  Each probe calls one layer's public
// API directly (bare sim::Engine, machine::Cluster, power::NodeStateArena,
// ResultCache, the service wire, the observation layers) so a change to
// that layer shows in its own number, independently of the workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/advisor_report.hpp"
#include "analysis/report.hpp"
#include "apps/npb.hpp"
#include "bench.hpp"
#include "campaign/runner.hpp"
#include "core/strategies.hpp"
#include "machine/cluster.hpp"
#include "service/cache.hpp"
#include "service/json.hpp"
#include "service/request.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "telemetry/export.hpp"
#include "trace/profile.hpp"

namespace perfbench {
namespace {

using namespace pcd;

/// Runs `fn` `reps` times and returns the median wall time in seconds.
template <class Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

// ---- sim -------------------------------------------------------------------

// Classic hold model: `pending` self-rescheduling events keep the queue at a
// constant depth; returns host ns per dispatched event.
double hold_ns(int pending, std::int64_t total) {
  struct Hold {
    sim::Engine* e;
    std::int64_t* fired;
    std::int64_t total;
    std::uint64_t* lcg;
    void operator()() const {
      if (++*fired >= total) return;
      *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      e->schedule_in(static_cast<sim::SimDuration>(1 + (*lcg >> 33) % 1000), *this);
    }
  };
  sim::Engine e;
  std::int64_t fired = 0;
  std::uint64_t lcg = 12345;
  for (int i = 0; i < pending; ++i) e.schedule_at(i, Hold{&e, &fired, total, &lcg});
  const auto t0 = Clock::now();
  e.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(e.events_processed());
}

// Coroutine spawn + resume: 64 processes each awaiting `hops` delays.
double resume_ns(int hops) {
  sim::Engine e;
  auto chain = [](int n) -> sim::Process {
    for (int i = 0; i < n; ++i) co_await sim::delay(1 + i % 3);
  };
  const auto t0 = Clock::now();
  for (int p = 0; p < 64; ++p) sim::spawn(e, chain(hops));
  e.run();
  return seconds_since(t0) * 1e9 / (64.0 * hops);
}

void sim_probes(Metrics& m) {
  std::vector<double> q9, q4096, res;
  for (int r = 0; r < 5; ++r) {
    q9.push_back(hold_ns(9, 1 << 20));
    q4096.push_back(hold_ns(4096, 1 << 20));
    res.push_back(resume_ns(4096));
  }
  m.push_back({"sim.dispatch_ns.q9", median(q9), "ns"});
  m.push_back({"sim.dispatch_ns.q4096", median(q4096), "ns"});
  m.push_back({"sim.resume_ns", median(res), "ns"});
}

// ---- machine / power --------------------------------------------------------

double cluster_build_ms(int nodes, int reps) {
  machine::ClusterConfig cc;
  cc.nodes = nodes;
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    sim::Engine e;
    const auto t0 = Clock::now();
    machine::Cluster c(e, cc);
    t.push_back(seconds_since(t0) * 1e3);
  }
  return median(t);
}

void machine_power_probes(Metrics& m) {
  m.push_back({"machine.cluster_build_ms.n9", cluster_build_ms(9, 51), "ms"});
  m.push_back({"machine.cluster_build_ms.n4096", cluster_build_ms(4096, 7), "ms"});

  machine::ClusterConfig cc;
  cc.nodes = 4096;
  sim::Engine e;
  machine::Cluster c(e, cc);
  std::vector<double> t;
  sim::SimTime now = 0;
  for (int r = 0; r < 9; ++r) {
    const auto t0 = Clock::now();
    for (int k = 0; k < 100; ++k) c.arena().accrue_all(now += sim::from_millis(1.0));
    t.push_back(seconds_since(t0) * 1e9 / (100.0 * 4096));
  }
  m.push_back({"power.accrue_all_ns_per_node", median(t), "ns"});
}

// ---- core / campaign / analysis (Table 2) -----------------------------------

void core_campaign_probes(const Options& o, Metrics& m, Checks& c,
                          std::vector<core::RunResult>* lone_results) {
  const campaign::ExperimentSpec spec = table2_spec(o.seed);
  m.push_back({"campaign.expand_ms", median_time(21, [&] { spec.expand(); }) * 1e3, "ms"});

  // Every cell run alone, serially.
  const auto& entries = spec.workload_entries();
  Table2Raw raw;
  double lone_total = 0;
  for (const auto& plan : spec.expand()) {
    const auto t0 = Clock::now();
    core::RunResult r = core::run_workload(entries.at(plan.workload).second, plan.config);
    const double s = seconds_since(t0);
    lone_total += s;
    const std::string code = plan.workload_label.substr(0, plan.workload_label.find('.'));
    m.push_back({"core.run_s." + code + "." + plan.labels.at(0), s, "s"});
    raw[{plan.workload_label, plan.labels.at(0)}] = {r.energy_j, r.delay_s};
    c.expect(!r.failed, "lone run " + plan.workload_label + " " + plan.labels.at(0));
    lone_results->push_back(std::move(r));
  }
  const Table2Fit fit = table2_fit(raw);
  m.push_back({"analysis.table2_max_err", fit.max_err, "normalized"});
  m.push_back({"analysis.table2_mean_err", fit.mean_err, "normalized"});

  // The same matrix on the work-stealing pool.
  std::vector<double> done_at;
  campaign::CampaignOptions co;
  co.threads = o.threads;
  co.on_progress = [&done_at](const campaign::Progress& p) { done_at.push_back(p.wall_s); };
  const auto r = campaign::CampaignRunner(co).run(spec);
  m.push_back({"campaign.pool_efficiency", lone_total / (o.threads * r.wall_s), "ratio"});
  // From the first completion after which a worker has nothing left to
  // start, to the last completion.
  const std::size_t idle_from = done_at.size() - std::min<std::size_t>(o.threads, done_at.size());
  m.push_back({"campaign.tail_s", done_at.back() - done_at.at(idle_from), "s"});
}

// ---- service ---------------------------------------------------------------

// Iterations of the replay that stands in for service_replay's traffic on
// the other workloads' traced runs: 32 fresh and 96 repeated requests.
constexpr int kProbeReplayIterations = 4;

void service_probes(const Options& o, const Workload& traced, Metrics& m, Checks& c,
                    const std::vector<core::RunResult>& results) {
  using namespace pcd::service;
  std::vector<campaign::CellResult> cells;
  for (const auto& r : results) cells.push_back(campaign::aggregate_cell({{r, false, ""}}));

  {
    const std::string dir = make_temp_dir(o.work_dir, "cache-");
    {
      ResultCache fill(dir, /*sync=*/false);
      for (std::uint64_t k = 0; k < 4 * cells.size(); ++k) fill.insert(k, cells[k % cells.size()]);
    }
    std::int64_t recovered = 0;
    m.push_back({"service.cache_open_ms", median_time(5, [&] {
                   ResultCache reopened(dir, true);
                   recovered = reopened.stats().recovered;
                 }) * 1e3, "ms"});
    c.expect(recovered == static_cast<std::int64_t>(4 * cells.size()),
             "cache reopen recovers every record");

    ResultCache cache(dir, true);
    std::vector<double> lookup;
    int found = 0;
    for (int b = 0; b < 9; ++b) {
      const auto t0 = Clock::now();
      for (std::uint64_t k = 0; k < 1000; ++k) found += cache.lookup(k % (4 * cells.size())) ? 1 : 0;
      lookup.push_back(seconds_since(t0) * 1e6 / 1000);
    }
    c.expect(found == 9 * 1000, "every cache lookup hits");
    m.push_back({"service.cache_lookup_us", median(lookup), "us"});

    std::vector<double> insert;
    for (std::uint64_t k = 0; k < 41; ++k) {
      const auto t0 = Clock::now();
      cache.insert(1000000 + k, cells[k % cells.size()]);
      insert.push_back(seconds_since(t0) * 1e6);
    }
    m.push_back({"service.cache_insert_us", median(insert), "us"});
    remove_tree(dir);
  }

  JsonValue req = replay_request(o.seed, 0).to_json();
  req.set("op", JsonValue::of("submit"));
  const std::string line = req.write();
  std::vector<double> parse;
  int parsed = 0;
  for (int b = 0; b < 9; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < 200; ++k) parsed += json_parse(line).has_value() ? 1 : 0;
    parse.push_back(seconds_since(t0) * 1e6 / 200);
  }
  c.expect(parsed == 9 * 200, "submit line parses");
  m.push_back({"service.json_parse_us", median(parse), "us"});

  {
    ServiceHarness h(o.work_dir, 1);
    std::vector<double> ping;
    int pongs = 0;
    for (int k = 0; k < 201; ++k) {
      const auto t0 = Clock::now();
      const std::string reply = h.call(0, "{\"op\":\"ping\"}");
      ping.push_back(seconds_since(t0) * 1e6);
      pongs += reply.find("\"ok\":true") != std::string::npos ? 1 : 0;
    }
    c.expect(pongs == 201, "every ping answered");
    m.push_back({"service.ping_rtt_us", median(ping), "us"});
  }

  // Request latency by cache outcome: service_replay's own requests, or,
  // traced on another workload, a short checked replay of the same traffic.
  std::vector<double> hit_ms, miss_ms;
  if (!traced.request_latencies(hit_ms, miss_ms)) {
    const std::unique_ptr<Workload> replay = make_service_replay(o);
    replay->setup();
    Iteration it;
    for (int i = 0; i < kProbeReplayIterations; ++i) replay->iterate(i, it);
    replay->verify(c);
    replay->request_latencies(hit_ms, miss_ms);
    replay->teardown();
  }
  m.push_back({"service.hit_p50_ms", quantile(hit_ms, 0.5), "ms"});
  m.push_back({"service.hit_p90_ms", quantile(hit_ms, 0.9), "ms"});
  m.push_back({"service.miss_p50_ms", quantile(miss_ms, 0.5), "ms"});
  m.push_back({"service.miss_p90_ms", quantile(miss_ms, 0.9), "ms"});
  m.push_back({"service.hit_ratio",
               static_cast<double>(hit_ms.size()) /
                   static_cast<double>(std::max<std::size_t>(1, hit_ms.size() + miss_ms.size())),
               "ratio"});
}

// ---- trace / profiler / telemetry / analysis --------------------------------

// Seed-1 advice per code (FT, CG): the schedule and the measured factors
// (advised run / profiled run, the paper's hand schedule / profiled run).
struct GoldenAdvice {
  profiler::InternalSchedule::Mode mode;
  int high_mhz, low_mhz;
  const char* phase_label;
  std::vector<int> rank_mhz;
  double advised_delay_f, advised_energy_f, hand_delay_f, hand_energy_f;
};
const GoldenAdvice kSeed1Advice[2] = {
    {profiler::InternalSchedule::Mode::Phase, 1400, 600, "mpi_alltoall", {},
     1.0026995667457959, 0.66334285464190512, 1.0026995667457959, 0.66334285464190512},
    {profiler::InternalSchedule::Mode::PerRank, 1400, 0, "", {1000, 1000, 1000, 1000, 800, 800, 800, 800},
     1.0837775693608143, 0.79316830193722876, 1.0827254924173817, 0.85048152925886678},
};

/// The execute half of examples/profiler_advisor.cpp for code `k` (0 = FT,
/// 1 = CG): runs the advised schedule and the paper's hand-written INTERNAL
/// schedule, then checks the gates of bench_ablation_advisor at every seed
/// and the golden advice at seed 1.
void check_advice(const Options& o, Checks& c, std::size_t k, const apps::Workload& w,
                  const core::RunResult& profiled, const profiler::InternalSchedule& s) {
  const std::string n = k == 0 ? "FT" : "CG";
  core::RunConfig advised_cfg = core::RunConfigBuilder().seed(o.seed).build();
  core::RunConfig hand_cfg = advised_cfg;
  advised_cfg.hooks = core::hooks_for(s);
  hand_cfg.hooks = k == 0 ? core::internal_phase_hooks(1400, 600)
                          : core::internal_rank_speed_hooks(
                                [](int rank) { return rank < 4 ? 1200 : 800; });
  const auto advised = core::run_workload(w, advised_cfg);
  const auto hand = core::run_workload(w, hand_cfg);
  c.expect(!advised.failed && !hand.failed, n + " advised or hand run failed");
  const double adf = advised.delay_s / profiled.delay_s;
  const double aef = advised.energy_j / profiled.energy_j;
  const double hdf = hand.delay_s / profiled.delay_s;
  const double hef = hand.energy_j / profiled.energy_j;
  if (k == 0) {
    c.expect(s.mode == profiler::InternalSchedule::Mode::Phase,
             "FT advisor picks a phase schedule");
    c.expect(std::abs(advised.delay_s / hand.delay_s - 1.0) <= 0.01,
             "FT advised delay within 1% of the hand schedule");
    c.expect(std::abs(advised.energy_j / hand.energy_j - 1.0) <= 0.02,
             "FT advised energy within 2% of the hand schedule");
  } else {
    int lower = 0, upper = 0;
    for (std::size_t r = 0; r < 8 && r < s.rank_mhz.size(); ++r) {
      (r < 4 ? lower : upper) += s.rank_mhz[r];
    }
    c.expect(s.mode == profiler::InternalSchedule::Mode::PerRank && s.rank_mhz.size() >= 8 &&
                 lower > upper,
             "CG advisor reproduces the rank asymmetry");
  }
  if (o.seed == 1) {
    const GoldenAdvice& g = kSeed1Advice[k];
    c.expect(s.mode == g.mode && s.high_mhz == g.high_mhz && s.low_mhz == g.low_mhz &&
                 s.phase_label == g.phase_label && s.rank_mhz == g.rank_mhz,
             n + " seed-1 advised schedule");
    c.near(adf, g.advised_delay_f, 1e-12, n + " seed-1 advised delay factor");
    c.near(aef, g.advised_energy_f, 1e-12, n + " seed-1 advised energy factor");
    c.near(hdf, g.hand_delay_f, 1e-12, n + " seed-1 hand delay factor");
    c.near(hef, g.hand_energy_f, 1e-12, n + " seed-1 hand energy factor");
  }
}

void observation_probes(const Options& o, Metrics& m, Checks& c) {
  const std::vector<apps::Workload> codes = {apps::make_ft(1.0), apps::make_cg(1.0)};
  enum { kPlain, kTrace, kProfileCollect, kProfile, kTelemetry, kModes };
  std::vector<core::RunConfig> cfgs(kModes, core::RunConfigBuilder().seed(o.seed).build());
  cfgs[kTrace].collect_trace = true;
  cfgs[kProfileCollect].profile = true;
  cfgs[kProfileCollect].profile_analysis = false;
  cfgs[kProfile].profile = true;
  cfgs[kTelemetry].telemetry.enabled = true;

  // Three interleaved rounds; per (code, mode) median, summed over codes.
  std::vector<std::vector<std::vector<double>>> t(
      codes.size(), std::vector<std::vector<double>>(kModes));
  for (int round = 0; round < 3; ++round) {
    for (std::size_t w = 0; w < codes.size(); ++w) {
      for (int mode = 0; mode < kModes; ++mode) {
        const auto t0 = Clock::now();
        const auto r = core::run_workload(codes[w], cfgs[mode]);
        t[w][mode].push_back(seconds_since(t0));
        c.expect(!r.failed, "observation probe run failed");
      }
    }
  }
  std::vector<double> sum(kModes, 0);
  for (std::size_t w = 0; w < codes.size(); ++w) {
    for (int mode = 0; mode < kModes; ++mode) sum[mode] += median(t[w][mode]);
  }
  m.push_back({"trace.run_overhead", sum[kTrace] / sum[kPlain], "x"});
  m.push_back({"profiler.run_overhead", sum[kProfileCollect] / sum[kPlain], "x"});
  m.push_back({"profiler.analysis_s", sum[kProfile] - sum[kProfileCollect], "s"});
  m.push_back({"telemetry.run_overhead", sum[kTelemetry] / sum[kPlain], "x"});

  // The profile -> advise -> execute loop of examples/profiler_advisor.cpp,
  // with telemetry on and every export and report rendered.
  core::RunConfig full = cfgs[kProfile];
  full.telemetry.enabled = true;
  double advise_ms = 0, telemetry_ms = 0, trace_ms = 0, report_ms = 0;
  double bytes = 0;
  for (std::size_t k = 0; k < codes.size(); ++k) {
    double run_bytes = 0;
    const auto r = core::run_workload(codes[k], full);
    profiler::InternalSchedule schedule;
    advise_ms += median_time(5, [&] { schedule = profiler::advise(*r.profiler); }) * 1e3;
    const telemetry::TelemetrySnapshot& snap = *r.telemetry;
    telemetry_ms += median_time(3, [&] {
                      run_bytes = static_cast<double>(snap.chrome_trace_json.size() +
                                                  telemetry::to_prometheus(snap.metrics).size() +
                                                  telemetry::series_csv(snap).size() +
                                                  telemetry::decisions_csv(snap).size());
                    }) * 1e3;
    trace_ms += median_time(3, [&] { trace::render_profile(*r.profile); }) * 1e3;
    report_ms += median_time(3, [&] {
                   analysis::advisor_report_text(*r.profiler, schedule);
                   analysis::advisor_report_csv(*r.profiler, schedule);
                   analysis::render_run_summary(r);
                 }) * 1e3;
    bytes += run_bytes;
    c.expect(run_bytes > 0, "exports are empty");
    check_advice(o, c, k, codes[k], r, schedule);
  }
  m.push_back({"telemetry.export_bytes", bytes, "bytes"});
  m.push_back({"profiler.advise_ms", advise_ms, "ms"});
  m.push_back({"telemetry.export_ms", telemetry_ms, "ms"});
  m.push_back({"trace.export_ms", trace_ms, "ms"});
  m.push_back({"analysis.report_ms", report_ms, "ms"});
}

}  // namespace

void layer_probes(const Options& o, const Workload& w, Metrics& m, Checks& c) {
  sim_probes(m);
  machine_power_probes(m);
  std::vector<core::RunResult> lone;
  core_campaign_probes(o, m, c, &lone);
  service_probes(o, w, m, c, lone);
  observation_probes(o, m, c);
}

}  // namespace perfbench
