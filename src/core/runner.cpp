#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "fault/injector.hpp"
#include "fault/watchdog.hpp"
#include "mpi/comm.hpp"
#include "net/network.hpp"
#include "sim/process.hpp"
#include "telemetry/export.hpp"

namespace pcd::core {

namespace {

struct Completion {
  bool done = false;
  bool failed = false;
  std::string failure;
  sim::SimTime t_end = 0;
  double energy_end = 0;
};

// Joins every rank process, then snapshots time/energy at the exact
// completion instant and stops the daemons — before any later meter or
// daemon event can advance the clock past the measurement window.
sim::Process completion_watcher(std::vector<sim::Process>& ranks, sim::Engine& engine,
                                machine::Cluster& cluster,
                                std::vector<std::function<void()>>& stoppers,
                                Completion* out) {
  for (auto& p : ranks) co_await p;
  if (out->done) co_return;  // the progress watchdog already failed the run
  out->t_end = engine.now();
  out->energy_end = cluster.total_energy_joules();
  for (auto& stop : stoppers) stop();
  out->done = true;
}

// Fails the run (structured, not a hang) when nothing has made progress for
// `timeout_s`: no MPI message delivered, no CPU work unit retired, no rank
// finished.  That is the signature of a crashed node with no
// checkpoint/restart — the survivors block inside MPI forever while the
// daemons keep the event queue alive.
sim::Process progress_watchdog(sim::Engine& engine, machine::Cluster& cluster,
                               mpi::Comm& comm, std::vector<sim::Process>& ranks,
                               std::vector<std::function<void()>>& stoppers,
                               double timeout_s, Completion* out) {
  auto signature = [&] {
    std::int64_t work = 0;
    for (int i = 0; i < cluster.size(); ++i) {
      work += cluster.node(i).cpu().stats().work_completed;
    }
    std::int64_t done_ranks = 0;
    for (const auto& p : ranks) done_ranks += p.done() ? 1 : 0;
    return std::tuple{comm.stats().messages, work, done_ranks};
  };
  auto last = signature();
  sim::SimTime last_change = engine.now();
  const auto poll = sim::from_seconds(std::max(0.25, timeout_s / 4.0));
  while (!out->done) {
    co_await sim::delay(poll);
    if (out->done) co_return;
    const auto cur = signature();
    if (cur != last) {
      last = cur;
      last_change = engine.now();
      continue;
    }
    if (sim::to_seconds(engine.now() - last_change) < timeout_s) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "MPI progress timeout: no message, work, or rank completion "
                  "for %.1f s (%lld/%zu ranks finished)",
                  timeout_s, static_cast<long long>(std::get<2>(cur)), ranks.size());
    out->failed = true;
    out->failure = buf;
    out->t_end = engine.now();
    out->energy_end = cluster.total_energy_joules();
    for (auto& stop : stoppers) stop();
    out->done = true;
    co_return;
  }
}

// Energy probe behind scope attribution: a pure read of the exact node
// energy integrator and the CPU's retired-cycle counter.  Both accessors
// accrue lazily but never mutate simulation-visible state, so sampling on
// every scope boundary keeps the run bit-identical.
struct ClusterProbe final : trace::Tracer::Probe {
  explicit ClusterProbe(machine::Cluster& c) : cluster(&c) {}
  machine::Cluster* cluster;
  trace::Tracer::EnergySample sample(int rank) override {
    auto& node = cluster->node(rank);
    const auto e = node.power().energy_breakdown();
    return {e.total(), e.cpu, node.cpu().retired_sensitive_cycles()};
  }
};

}  // namespace

std::string describe(const std::vector<ConfigIssue>& issues) {
  std::string out;
  for (const auto& i : issues) {
    if (!out.empty()) out += "; ";
    out += i.field + ": " + i.message;
  }
  return out;
}

std::vector<ConfigIssue> RunConfig::validate() const {
  std::vector<ConfigIssue> issues;
  if (daemon.has_value() && predictor.has_value()) {
    issues.push_back({"daemon/predictor",
                      "CPUSPEED daemon and phase predictor are mutually "
                      "exclusive strategies; configure at most one"});
  }
  if (slice_s <= 0) {
    issues.push_back({"slice_s", "compute-phase slice must be positive, got " +
                                     std::to_string(slice_s)});
  }
  if (static_mhz < 0) {
    issues.push_back({"static_mhz", "static frequency cannot be negative, got " +
                                        std::to_string(static_mhz)});
  }
  if (daemon.has_value() && daemon->interval_s <= 0) {
    issues.push_back({"daemon.interval_s", "daemon polling interval must be positive"});
  }
  if (predictor.has_value() && predictor->interval_s <= 0) {
    issues.push_back({"predictor.interval_s",
                      "predictor polling interval must be positive"});
  }
  for (const auto& e : faults.events) {
    if (e.at_s < 0) {
      issues.push_back({"faults.events", "scripted fault scheduled before launch (at_s = " +
                                             std::to_string(e.at_s) + ")"});
      break;
    }
  }
  for (const auto& h : faults.hazards) {
    if (h.mtbf_s <= 0) {
      issues.push_back({"faults.hazards", "hazard MTBF must be positive"});
      break;
    }
  }
  if (faults.horizon_s < 0) {
    issues.push_back({"faults.horizon_s", "hazard horizon cannot be negative"});
  }
  if (wall_deadline_s < 0) {
    issues.push_back({"wall_deadline_s", "wall-clock deadline cannot be negative, got " +
                                             std::to_string(wall_deadline_s)});
  }
  if (faults.resilience.checkpoint_interval_s < 0 ||
      faults.resilience.checkpoint_cost_s < 0) {
    issues.push_back({"faults.resilience",
                      "checkpoint interval/cost cannot be negative"});
  }
  for (auto& [field, message] :
       net::Network::validate_params(cluster.network, "cluster.network")) {
    issues.push_back({field, message});
  }
  return issues;
}

RunConfig RunConfigBuilder::build() const {
  auto issues = cfg_.validate();
  if (!issues.empty()) {
    throw std::invalid_argument("invalid RunConfig: " + describe(issues));
  }
  return cfg_;
}

RunResult run_workload(const apps::Workload& workload, const RunConfig& config) {
  if (auto issues = config.validate(); !issues.empty()) {
    throw std::invalid_argument("invalid RunConfig: " + describe(issues));
  }
  sim::Engine engine;

  // --- determinism observability (installed before anything schedules, so
  // the digest streams cover the cluster's very first event) ---
  std::unique_ptr<telemetry::DeterminismCollector> det;
  if (config.determinism.any()) {
    det = std::make_unique<telemetry::DeterminismCollector>(engine, config.determinism);
  }

  machine::ClusterConfig cc = config.cluster;
  // The paper reports total system energy of the nodes running the job
  // (one battery per participating node); size the cluster accordingly.
  cc.nodes = workload.ranks;
  cc.seed = config.seed * 0x9e3779b97f4a7c15ULL + 0x1234567;
  machine::Cluster cluster(engine, cc);

  if (det != nullptr) {
    for (int i = 0; i < cluster.size(); ++i) {
      cluster.node(i).power().set_digest(det->power_stream(), i);
    }
    if (telemetry::FlightRecorder* fr = det->recorder(); fr != nullptr) {
      fr->add_state("engine", [&engine] {
        char b[160];
        std::snprintf(b, sizeof b,
                      "{\"t_ns\":%llu,\"pending_events\":%zu,"
                      "\"events_processed\":%zu}",
                      static_cast<unsigned long long>(engine.now()),
                      engine.pending_events(), engine.events_processed());
        return std::string(b);
      });
      fr->add_state("rng_draws", [] {
        return std::to_string(sim::RngTelemetry::draws);
      });
      // Dump-time read of the lazy integrators: pure, never folds (reads
      // are deliberately outside the power digest).
      fr->add_state("power", [&cluster] {
        char b[64];
        std::snprintf(b, sizeof b, "{\"total_joules\":%.9f}",
                      cluster.total_energy_joules());
        return std::string(b);
      });
      fr->add_state("digest", [d = det.get()] {
        const auto& dg = d->digest();
        char b[160];
        std::snprintf(b, sizeof b,
                      "{\"root\":\"%016llx\",\"events\":%llu,\"rng\":%llu,"
                      "\"power\":%llu,\"mpi\":%llu}",
                      static_cast<unsigned long long>(dg.root()),
                      static_cast<unsigned long long>(
                          dg.streams[telemetry::RunDigest::kEvents].count),
                      static_cast<unsigned long long>(
                          dg.streams[telemetry::RunDigest::kRng].count),
                      static_cast<unsigned long long>(
                          dg.streams[telemetry::RunDigest::kPower].count),
                      static_cast<unsigned long long>(
                          dg.streams[telemetry::RunDigest::kMpi].count));
        return std::string(b);
      });
    }
  }

  // --- telemetry (attach before any strategy acts, so EXTERNAL static
  // sets and meter-protocol events are captured too) ---
  std::unique_ptr<telemetry::Hub> hub;
  if (config.telemetry.enabled) {
    hub = std::make_unique<telemetry::Hub>();
    cluster.attach_telemetry(hub.get());
  }

  // --- measurement protocol (paper §4.2) ---
  if (config.use_meters) {
    for (int i = 0; i < cluster.size(); ++i) {
      auto& b = cluster.node(i).battery();
      b.recharge_full();   // 1) fully charge
      b.disconnect_ac();   // 2) disconnect building power (via Baytech)
      b.start_polling();
    }
    cluster.baytech().start_polling();
    engine.run_until(engine.now() + 300 * sim::kSecond);  // 3) 5-min discharge
  }

  // --- strategy setup ---
  if (config.static_mhz != 0) {
    cluster.set_all_cpuspeed(config.static_mhz);  // EXTERNAL: psetcpuspeed
    engine.run_until(engine.now() + sim::kMillisecond);  // settle transitions
  }

  std::vector<std::unique_ptr<CpuspeedDaemon>> daemons;
  std::vector<std::unique_ptr<PhasePredictorDaemon>> predictors;
  std::vector<std::function<void()>> stoppers;
  if (config.daemon.has_value()) {
    auto stagger_rng = cluster.rng_stream();
    for (int i = 0; i < cluster.size(); ++i) {
      const auto offset = static_cast<sim::SimDuration>(
          stagger_rng.uniform(0.0, config.daemon->interval_s) * 1e9);
      daemons.push_back(std::make_unique<CpuspeedDaemon>(engine, cluster.node(i),
                                                         *config.daemon, offset));
      daemons.back()->start();
      stoppers.push_back([d = daemons.back().get()] { d->stop(); });
    }
  }
  if (config.predictor.has_value()) {
    auto stagger_rng = cluster.rng_stream();
    for (int i = 0; i < cluster.size(); ++i) {
      const auto offset = static_cast<sim::SimDuration>(
          stagger_rng.uniform(0.0, config.predictor->interval_s) * 1e9);
      predictors.push_back(std::make_unique<PhasePredictorDaemon>(
          engine, cluster.node(i), *config.predictor, offset));
      predictors.back()->start();
      stoppers.push_back([d = predictors.back().get()] { d->stop(); });
    }
  }

  // --- fault layer (src/fault) ---
  //
  // Everything here is skipped for an empty plan: no RNG stream is drawn
  // (the injector split happens only when the plan injects, *after* the
  // daemon stagger draws), nothing is scheduled, nothing is observed.
  const fault::FaultPlan& plan = config.faults;
  std::optional<fault::FaultReport> fault_report;
  std::unique_ptr<fault::CheckpointService> ckpt;
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<std::unique_ptr<fault::DaemonWatchdog>> watchdogs;
  double mpi_timeout_s = plan.resilience.mpi_timeout_s;
  if (mpi_timeout_s == 0) mpi_timeout_s = plan.injects() ? 60.0 : -1.0;
  if (plan.active()) {
    fault_report.emplace();
    if (plan.resilience.checkpoint_interval_s > 0) {
      ckpt = std::make_unique<fault::CheckpointService>(
          engine, cluster, plan.resilience.checkpoint_interval_s,
          plan.resilience.checkpoint_cost_s, &*fault_report, hub.get());
      stoppers.push_back([c = ckpt.get()] { c->stop(); });
    }
    if (plan.injects()) {
      injector = std::make_unique<fault::FaultInjector>(
          engine, cluster, plan, cluster.rng_stream(), &*fault_report);
      injector->attach_telemetry(hub.get());
      if (ckpt != nullptr) injector->set_checkpoint_service(ckpt.get());
      if (!daemons.empty()) {
        injector->set_daemon_wedger([&daemons](int n) { daemons.at(n)->stop(); });
      } else if (!predictors.empty()) {
        injector->set_daemon_wedger([&predictors](int n) { predictors.at(n)->stop(); });
      }
      stoppers.push_back([inj = injector.get()] { inj->disarm(); });
    }
    if (plan.resilience.watchdog) {
      for (int i = 0; i < cluster.size(); ++i) {
        fault::DaemonHooks hooks;
        if (!daemons.empty()) {
          auto* d = daemons[static_cast<std::size_t>(i)].get();
          hooks.polls = [d] { return d->polls(); };
          hooks.restart = [d] { d->start(); };
          hooks.disable = [d] { d->stop(); };
          hooks.expected_poll_interval_s = config.daemon->interval_s;
        } else if (!predictors.empty()) {
          auto* d = predictors[static_cast<std::size_t>(i)].get();
          hooks.polls = [d] { return d->polls(); };
          hooks.restart = [d] { d->start(); };
          hooks.disable = [d] { d->stop(); };
          hooks.expected_poll_interval_s = config.predictor->interval_s;
        }
        watchdogs.push_back(std::make_unique<fault::DaemonWatchdog>(
            engine, cluster.node(i), plan.resilience.watchdog_params, hooks,
            &*fault_report, hub.get()));
        if (det != nullptr) watchdogs.back()->set_flight_recorder(det->recorder());
        watchdogs.back()->start();
        stoppers.push_back([w = watchdogs.back().get()] { w->stop(); });
      }
    }
  }

  std::unique_ptr<trace::Tracer> tracer;
  std::optional<ClusterProbe> probe;
  if (config.collect_trace || config.profile) {
    tracer = std::make_unique<trace::Tracer>(engine, workload.ranks);
    if (config.profile) {
      probe.emplace(cluster);
      tracer->set_probe(&*probe);
    }
  }

  // The sampler only *reads* cluster state, so enabling it cannot perturb
  // delay or energy; it starts here so the series covers the run window.
  std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
  if (hub != nullptr && config.telemetry.sample) {
    sampler = std::make_unique<telemetry::TimeSeriesSampler>(
        engine, cluster.size(), config.telemetry.sampler,
        [&cluster](int i) {
          auto& node = cluster.node(i);
          const auto bd = node.power().breakdown();
          telemetry::NodeProbe p;
          p.freq_mhz = node.cpu().frequency_mhz();
          p.busy_weighted_ns = node.cpu().busy_weighted_ns();
          p.watts_cpu = bd.cpu;
          p.watts_memory = bd.memory;
          p.watts_disk = bd.disk;
          p.watts_nic = bd.nic;
          p.watts_other = bd.other;
          return p;
        },
        &hub->registry());
    // Batch path: one dense dirty-lane refresh over the arena per tick; the
    // per-node breakdown() calls above then read clean cached lanes.
    sampler->set_tick_prelude([&cluster] { cluster.arena().refresh_all(); });
    sampler->start();
    stoppers.push_back([s = sampler.get()] { s->stop(); });
  }

  std::vector<int> node_ids(workload.ranks);
  std::iota(node_ids.begin(), node_ids.end(), 0);
  mpi::Comm comm(cluster, node_ids, mpi::CostParams{}, tracer.get());
  if (det != nullptr) comm.set_digest(det->mpi_stream());

  apps::AppContext ctx;
  ctx.comm = &comm;
  ctx.tracer = tracer.get();
  ctx.hooks = &config.hooks;
  ctx.slice_s = config.slice_s;

  // --- launch and run ---
  const sim::SimTime t_start = engine.now();
  const double e_start = cluster.total_energy_joules();
  std::vector<double> acpi_start(cluster.size(), 0);
  std::vector<double> acpi_end(cluster.size(), 0);
  if (config.use_meters) {
    for (int i = 0; i < cluster.size(); ++i) {
      acpi_start[i] = cluster.node(i).battery().reported_remaining_mwh();
    }
    // The operator reads the batteries right at completion; register that
    // read with the completion watcher so it happens at exactly t_end.
    stoppers.push_back([&cluster, &acpi_end] {
      for (int i = 0; i < cluster.size(); ++i) {
        acpi_end[i] = cluster.node(i).battery().reported_remaining_mwh();
        cluster.node(i).battery().stop_polling();
      }
    });
  }

  // Arm the resilience/injection machinery right at launch so scripted
  // fault times are relative to the application's start.
  if (ckpt != nullptr) ckpt->start();
  if (injector != nullptr) injector->arm();

  std::vector<sim::Process> rank_procs;
  rank_procs.reserve(workload.ranks);
  for (int r = 0; r < workload.ranks; ++r) {
    rank_procs.push_back(sim::spawn(engine, workload.make_rank(ctx, r)));
  }
  Completion completion;
  sim::spawn(engine,
             completion_watcher(rank_procs, engine, cluster, stoppers, &completion));
  if (mpi_timeout_s > 0) {
    sim::spawn(engine, progress_watchdog(engine, cluster, comm, rank_procs, stoppers,
                                         mpi_timeout_s, &completion));
  }

  // Structured mid-run abort shared by the cancellation, deadline, and
  // deadlock paths: snapshot the measurement window at the abort instant and
  // stop every daemon/sampler so no later event advances the clock.
  auto abort_run = [&](std::string why) {
    completion.failed = true;
    completion.failure = std::move(why);
    completion.t_end = engine.now();
    completion.energy_end = cluster.total_energy_joules();
    for (auto& stop : stoppers) stop();
    completion.done = true;
  };

  // Cancellation and wall-clock deadline checks run between event batches:
  // a pure wall-side read (no event scheduled, no RNG drawn), so a run
  // that is never cancelled stays bit-identical to an unbounded one.
  const auto wall_start = std::chrono::steady_clock::now();
  auto check_control = [&]() -> bool {  // true = keep running
    if (config.cancel != nullptr &&
        config.cancel->load(std::memory_order_relaxed)) {
      abort_run("run cancelled by caller");
      return false;
    }
    if (config.wall_deadline_s > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
              .count();
      if (elapsed > config.wall_deadline_s) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "wall-clock deadline exceeded: %.2f s elapsed against a "
                      "%.2f s budget",
                      elapsed, config.wall_deadline_s);
        abort_run(buf);
        return false;
      }
    }
    return true;
  };

  while (!completion.done) {
    if (!check_control()) break;
    if (engine.run(200'000) == 0) {
      if (plan.active()) {
        // Structured failure: a crashed node left the survivors blocked in
        // MPI with nothing else scheduled.
        abort_run("cluster deadlocked: ranks blocked in MPI with no events pending");
        break;
      }
      throw std::runtime_error("workload deadlocked: no events but ranks unfinished");
    }
  }

  const sim::SimTime t_end = completion.t_end;
  RunResult result;
  result.workload = workload.name;
  result.delay_s = sim::to_seconds(t_end - t_start);
  result.energy_j = completion.energy_end - e_start;
  result.failed = completion.failed;
  result.failure = completion.failure;

  if (fault_report.has_value()) {
    if (injector != nullptr) injector->finalize();
    fault_report->run_failed = completion.failed;
    fault_report->failure = completion.failure;
    result.fault_report = std::move(fault_report);
  }

  if (config.use_meters) {
    // Capacity differences were read at t_end by the completion watcher;
    // staleness at both ends (each value is from the last 15-20 s refresh)
    // largely cancels over long runs.
    double acpi_mwh = 0;
    for (int i = 0; i < cluster.size(); ++i) {
      acpi_mwh += acpi_start[i] - acpi_end[i];
    }
    result.energy_acpi_j = acpi_mwh * 3.6;
    // The Baytech unit reports completed one-minute windows; run the clock
    // past the next report so the window containing t_end is available.
    const sim::SimTime grace = t_end + 61 * sim::kSecond;
    if (engine.now() < grace) engine.run_until(grace);
    result.energy_baytech_j = cluster.baytech().estimate_energy_joules(t_start, t_end);
    cluster.baytech().stop_polling();
  }

  // A run cancelled before its first event has an empty window; its
  // utilization is 0, not 0/0.
  const sim::SimDuration window = t_end - t_start;
  for (int i = 0; i < cluster.size(); ++i) {
    result.dvs_transitions += cluster.node(i).cpu().stats().transitions;
    if (window > 0) {
      result.mean_utilization += cluster.node(i).cpu().busy_weighted_ns() /
                                 static_cast<double>(window) / cluster.size();
    }
  }
  result.net_collisions = cluster.network().stats().collisions;
  result.messages = comm.stats().messages;
  result.events = static_cast<std::int64_t>(engine.events_processed());

  if (tracer) {
    result.profile = trace::analyze(*tracer);
    result.timeline = trace::render_timeline(*tracer);
  }

  if (config.profile && config.profile_analysis && tracer) {
    const auto& table = cluster.node(0).cpu().table();
    const int profile_mhz =
        config.static_mhz != 0 ? config.static_mhz : table.highest().freq_mhz;
    result.profiler = profiler::profile(*tracer, result.profile->ranks, table, profile_mhz,
                                        result.delay_s, result.energy_j);
  }

  if (det != nullptr) {
    telemetry::RunCapture capture = det->take_capture();
    // Black box: a failed run dumps the last N causal steps at the failure
    // instant (watchdog-fallback dumps are in fault_report already).
    if (completion.failed && det->recorder() != nullptr) {
      capture.flight_recording =
          det->recorder()->dump_json(completion.failure, engine.now());
    }
    det->detach();
    result.determinism = std::move(capture);
  }

  if (hub != nullptr) {
    auto& reg = hub->registry();
    reg.set_help("run_delay_seconds", "Wall time from launch to last rank completion");
    reg.set_help("run_energy_joules", "Exact total system energy over the run window");
    reg.set_help("mpi_messages_total", "Point-to-point MPI messages delivered");
    reg.gauge("run_delay_seconds").set(result.delay_s);
    reg.gauge("run_energy_joules").set(result.energy_j);
    reg.counter("mpi_messages_total").inc(static_cast<double>(result.messages));
    if (result.profiler.has_value()) {
      reg.set_help("profiler_scope_energy_joules",
                   "Node energy attributed to trace scopes, per rank and category");
      reg.set_help("profiler_scope_seconds",
                   "Time attributed to trace scopes, per rank and category");
      const auto& attr = result.profiler->attribution;
      for (std::size_t r = 0; r < attr.ranks.size(); ++r) {
        for (int c = 0; c < 6; ++c) {
          const auto& cat = attr.ranks[r].by_cat[static_cast<std::size_t>(c)];
          if (cat.count == 0) continue;
          const telemetry::Labels labels = {
              {"rank", std::to_string(r)},
              {"category", trace::to_string(static_cast<trace::Cat>(c))}};
          reg.counter("profiler_scope_energy_joules", labels).inc(cat.joules);
          reg.counter("profiler_scope_seconds", labels).inc(cat.seconds);
        }
      }
    }
    auto snap = telemetry::make_snapshot(*hub, sampler.get());
    snap.chrome_trace_json = telemetry::to_chrome_json(
        snap, tracer.get(),
        result.determinism.has_value() ? &*result.determinism : nullptr);
    result.telemetry = std::move(snap);
  }

  // Failed or abandoned runs leave ranks suspended inside MPI waits; those
  // frames hold RAII guards over cluster objects, so destroy them here while
  // the cluster (declared above) is still alive rather than in ~Engine.
  engine.destroy_suspended_frames();
  return result;
}

}  // namespace pcd::core
