// Energy-and-slack attribution over MPE-style traces, plus the DVS advisor
// that turns a profile into an INTERNAL schedule.
//
// The paper derives its INTERNAL strategies by hand: reading Jumpshot
// traces of FT to find the frequency-insensitive MPI_Alltoall phase (§5.3)
// and of CG to find the rank asymmetry behind the 1200/800 split (§5.4).
// This module automates that loop:
//
//   1. Attribution — every trace scope carries joules (node + CPU
//      component) and the frequency-sensitive cycles retired inside it,
//      sampled through trace::Tracer::Probe.  Per rank and category the
//      totals are trace::analyze's RankProfile; this module adds the
//      per-label aggregation.
//   2. Causality — the tracer's send→recv message log plus the per-rank
//      scope sequence form a cross-rank event DAG.  A backward pass
//      computes, for every scope, how much later it could have finished
//      without extending the makespan (its slack) and which scopes are on
//      the critical path.
//   3. Advice — from the attribution, the slack map, and the Table-1
//      operating points, emit an InternalSchedule: either a phase schedule
//      (drop to low_mhz around a dominant collective, FT-style) or a
//      per-rank static assignment (CG-style), with first-order predicted
//      energy/delay factors vs. the measured baseline.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/operating_point.hpp"
#include "sim/time.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace pcd::profiler {

// ---- captured run -----------------------------------------------------------

/// Portable copy of one profiled run: everything the analyses need after
/// the engine/cluster that produced it is gone.
struct RunTrace {
  std::vector<std::vector<trace::Record>> records;  // per rank, in end order
  std::vector<trace::MessageEvent> messages;
  sim::SimTime t_end = 0;                // latest scope/message instant
  cpu::OperatingPointTable table;        // operating points of the run
  int profile_mhz = 0;                   // frequency the profile ran at
  double measured_delay_s = 0;
  double measured_energy_j = 0;

  int ranks() const { return static_cast<int>(records.size()); }
  double makespan_s() const { return sim::to_seconds(t_end); }
};

/// Copies a finished tracer into a RunTrace.  The profile is assumed to
/// have been collected at `profile_mhz` (the paper profiles at full speed).
RunTrace capture(const trace::Tracer& tracer, const cpu::OperatingPointTable& table,
                 int profile_mhz);

// ---- (1) energy attribution -------------------------------------------------

/// Aggregation over every scope sharing a label (e.g. "mpi_alltoall").
struct LabelAttribution {
  std::string label;
  trace::Cat cat{};
  int count = 0;  // scope instances across all ranks
  double seconds = 0;
  double joules = 0;
  double cpu_joules = 0;
  double cycles = 0;
  // Worst single rank: in a synchronized application the slowest rank's
  // stretch is the one the run sees, so predictions use these.
  double max_rank_seconds = 0;
  double max_rank_cycles = 0;
  int max_rank_count = 0;
};

struct EnergyAttribution {
  std::vector<trace::RankProfile> ranks;  // the run's trace::analyze totals
  std::vector<LabelAttribution> labels;  // sorted by joules, descending
  double scoped_j = 0;  // sum over scopes (<= measured run energy)
};

/// Label aggregation over `run`'s records; the per-rank totals are the
/// ones trace::analyze already computed for the same run.
EnergyAttribution attribute(const RunTrace& run, std::vector<trace::RankProfile> ranks);

// ---- (2) cross-rank critical path and slack ---------------------------------

/// Whether stretching upstream work shifts this scope rather than being
/// absorbed by it: waits and receives shrink when their input arrives
/// "less early"; compute, stalls, sends, and collectives do not.
bool is_rigid(trace::Cat c);

struct SlackAnalysis {
  double makespan_s = 0;
  /// slack[rank][i]: how much later records(rank)[i] could have ended
  /// without extending the makespan.  Always >= 0.
  std::vector<std::vector<double>> record_slack_s;
  /// Elastic (Wait/Recv) recorded seconds per rank — the raw material a
  /// per-rank slowdown converts into energy savings.
  std::vector<double> rank_elastic_s;
  /// Rigid seconds on the critical path, per rank and per category.
  std::vector<double> rank_critical_s;
  std::array<double, 6> critical_by_cat_s{};
  /// Slack at or below this counts as critical.
  double critical_eps_s = 0;
};

SlackAnalysis analyze_slack(const RunTrace& run);

// ---- (3) the advisor --------------------------------------------------------

struct AdvisorOptions {
  /// Phase mode: accept the lowest frequency whose predicted makespan
  /// stretch stays within this fraction.
  double max_delay_increase = 0.02;
  /// Phase mode: the dominant collective must account for at least this
  /// fraction of the makespan (on its busiest rank) to be worth gearing.
  double phase_dominance = 0.25;
  /// Per-rank mode: fraction of a rank's elastic wait the advisor is
  /// willing to convert into slower execution (the paper's hand-derived
  /// CG split trades bounded delay for energy the same way).
  double usable_slack = 0.2;
  /// Assumed cost of one DVS mode transition (paper §2: 20-30 us).
  double transition_stall_s = 25e-6;
};

/// A schedule the INTERNAL strategy can execute directly
/// (core::hooks_for turns it into apps::DvsHooks).
struct InternalSchedule {
  enum class Mode {
    None,     // no exploitable slack found: stay at profile speed
    Phase,    // run at high_mhz, drop to low_mhz around `phase_label`
    PerRank,  // static per-rank frequencies
  };
  Mode mode = Mode::None;
  int high_mhz = 0;
  int low_mhz = 0;
  std::string phase_label;
  std::vector<int> rank_mhz;
  // First-order predictions relative to the measured profile run.
  double predicted_delay_factor = 1.0;
  double predicted_energy_factor = 1.0;
  /// Human-readable derivation log (candidates considered and why they
  /// were accepted or rejected).
  std::string rationale;
};

const char* to_string(InternalSchedule::Mode m);

InternalSchedule advise(const RunTrace& run, const EnergyAttribution& attr,
                        const SlackAnalysis& slack, const AdvisorOptions& opts = {});

// ---- bundled result ---------------------------------------------------------

/// Everything the profiler derives from one run, in analysis order.
struct ProfileResult {
  RunTrace run;
  EnergyAttribution attribution;
  SlackAnalysis slack;
};

/// capture + attribute + analyze_slack in one call; `ranks` is the run's
/// trace::analyze(tracer).ranks.
ProfileResult profile(const trace::Tracer& tracer, std::vector<trace::RankProfile> ranks,
                      const cpu::OperatingPointTable& table, int profile_mhz,
                      double measured_delay_s, double measured_energy_j);

inline InternalSchedule advise(const ProfileResult& prof, const AdvisorOptions& opts = {}) {
  return advise(prof.run, prof.attribution, prof.slack, opts);
}

}  // namespace pcd::profiler
