// The slack→schedule derivation.
//
// Phase mode (FT, §5.3): if one collective label dominates the run, its
// scopes sit on the critical path but retire few frequency-sensitive
// cycles — protocol processing stretches at low frequency, wire time and
// waiting do not.  The advisor picks the lowest operating point whose
// predicted stretch (cycle re-pricing on the busiest rank plus two mode
// transitions per instance) fits the delay budget.
//
// Per-rank mode (CG, §5.4): with no dominant collective, ranks that wait
// on their peers can run slower; the advisor converts a bounded fraction
// of each rank's elastic wait into slowdown, reproducing the paper's
// asymmetric speed assignment.  In a tightly-coupled exchange part of the
// stretch leaks back into the makespan (the paper accepts ~8% on CG), so
// the delay prediction is the no-absorption upper bound.
//
// Energy predictions are first order: the CPU-cycle portion of a scope's
// energy scales with V^2 at fixed cycle count, resident CPU power with
// V^2*f, and non-CPU power with stretched duration.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "profiler/profiler.hpp"

namespace pcd::profiler {

const char* to_string(InternalSchedule::Mode m) {
  switch (m) {
    case InternalSchedule::Mode::None: return "none";
    case InternalSchedule::Mode::Phase: return "phase";
    case InternalSchedule::Mode::PerRank: return "per-rank";
  }
  return "?";
}

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double seconds_per_cycle(int mhz) { return 1.0 / (static_cast<double>(mhz) * 1e6); }

/// Energy of `scoped` joules after re-pricing its `cycles` from f_base to
/// f_low: the sensitive share scales with V^2 (same cycles, lower
/// voltage), the resident CPU share with V^2*f, and the non-CPU share
/// grows with the stretched duration.
double scale_energy(double joules, double cpu_joules, double cycles, double seconds,
                    const cpu::OperatingPoint& base, const cpu::OperatingPoint& low) {
  if (seconds <= 0) return joules;
  const double v2 = (low.voltage * low.voltage) / (base.voltage * base.voltage);
  const double v2f = v2 * (static_cast<double>(low.freq_mhz) / base.freq_mhz);
  const double sens_s = cycles * seconds_per_cycle(base.freq_mhz);
  const double sens_frac = std::clamp(sens_s / seconds, 0.0, 1.0);
  const double cpu_sens = cpu_joules * sens_frac;
  const double cpu_rest = cpu_joules - cpu_sens;
  const double other = joules - cpu_joules;
  const double stretch_s = cycles * (seconds_per_cycle(low.freq_mhz) -
                                     seconds_per_cycle(base.freq_mhz));
  const double other_scaled = other * (seconds + stretch_s) / seconds;
  return cpu_sens * v2 + cpu_rest * v2f + other_scaled;
}

}  // namespace

InternalSchedule advise(const RunTrace& run, const EnergyAttribution& attr,
                        const SlackAnalysis& slack, const AdvisorOptions& opts) {
  InternalSchedule s;
  const cpu::OperatingPointTable& table = run.table;
  const int f_base = run.profile_mhz > 0 ? run.profile_mhz : table.highest().freq_mhz;
  const cpu::OperatingPoint base{f_base, table.at(table.index_of(f_base)).voltage};
  const double makespan = slack.makespan_s;
  s.high_mhz = f_base;
  if (makespan <= 0 || attr.ranks.empty()) {
    s.rationale = "empty profile: nothing to schedule\n";
    return s;
  }

  // ---- phase mode: is one collective label dominant? ----
  const LabelAttribution* dom = nullptr;
  for (const auto& lab : attr.labels) {
    if (lab.cat != trace::Cat::Collective) continue;
    if (dom == nullptr || lab.max_rank_seconds > dom->max_rank_seconds) dom = &lab;
  }
  if (dom != nullptr) {
    const double share = dom->max_rank_seconds / makespan;
    appendf(s.rationale, "dominant collective '%s': %.1f%% of makespan (%d instances)\n",
            dom->label.c_str(), 100.0 * share, dom->max_rank_count);
    if (share >= opts.phase_dominance) {
      for (const auto& op : table.points()) {
        if (op.freq_mhz >= f_base) break;
        // Stretch on the busiest rank: its protocol cycles re-priced at the
        // low point, plus two transitions around every instance.
        const double stretch =
            dom->max_rank_cycles *
                (seconds_per_cycle(op.freq_mhz) - seconds_per_cycle(f_base)) +
            2.0 * dom->max_rank_count * opts.transition_stall_s;
        const bool ok = stretch <= opts.max_delay_increase * makespan;
        appendf(s.rationale, "  gear to %d MHz: predicted stretch %.3f s (%.2f%%) %s\n",
                op.freq_mhz, stretch, 100.0 * stretch / makespan,
                ok ? "<= budget: accept" : "> budget: reject");
        if (!ok) continue;
        s.mode = InternalSchedule::Mode::Phase;
        s.low_mhz = op.freq_mhz;
        s.phase_label = dom->label;
        s.predicted_delay_factor = 1.0 + stretch / makespan;
        const double scaled = scale_energy(dom->joules, dom->cpu_joules, dom->cycles,
                                           dom->seconds, base, op);
        if (run.measured_energy_j > 0) {
          s.predicted_energy_factor =
              (run.measured_energy_j - dom->joules + scaled) / run.measured_energy_j;
        }
        appendf(s.rationale,
                "phase schedule: %d MHz, %d MHz inside '%s' "
                "(predicted delay x%.3f, energy x%.3f)\n",
                s.high_mhz, s.low_mhz, s.phase_label.c_str(), s.predicted_delay_factor,
                s.predicted_energy_factor);
        return s;
      }
      appendf(s.rationale, "  no lower point fits the %.1f%% delay budget\n",
              100.0 * opts.max_delay_increase);
    }
  }

  // ---- per-rank mode: convert elastic wait into slowdown ----
  s.rank_mhz.assign(attr.ranks.size(), f_base);
  double max_stretch_s = 0;
  double predicted_j = run.measured_energy_j - attr.scoped_j;  // unscoped part
  bool any_lower = false;
  for (std::size_t r = 0; r < attr.ranks.size(); ++r) {
    const trace::RankProfile& ra = attr.ranks[r];
    // Elastic wait the rank could spend running slower: blocked time in
    // waits/recvs plus the idle share of its collectives (collective
    // protocol cycles are part of ra.cycles and stretch too).
    const double coll_idle =
        std::max(0.0, ra.at(trace::Cat::Collective).seconds -
                          ra.at(trace::Cat::Collective).cycles * seconds_per_cycle(f_base));
    const double wait_s = slack.rank_elastic_s[r] + coll_idle;
    const double budget = opts.usable_slack * wait_s;
    int chosen = f_base;
    double chosen_stretch = 0;
    for (const auto& op : table.points()) {
      if (op.freq_mhz >= f_base) break;
      const double stretch =
          ra.cycles * (seconds_per_cycle(op.freq_mhz) - seconds_per_cycle(f_base));
      if (stretch <= budget) {
        chosen = op.freq_mhz;
        chosen_stretch = stretch;
        break;  // ascending table: first fit is the lowest point
      }
    }
    s.rank_mhz[r] = chosen;
    appendf(s.rationale,
            "rank %zu: %.3f s elastic wait, budget %.3f s -> %d MHz "
            "(stretch %.3f s)\n",
            r, wait_s, budget, chosen, chosen_stretch);
    if (chosen < f_base) any_lower = true;
    max_stretch_s = std::max(max_stretch_s, chosen_stretch);
    const cpu::OperatingPoint low{chosen, table.at(table.index_of(chosen)).voltage};
    predicted_j += scale_energy(ra.joules, [&] {
      double cpu_j = 0;
      for (const auto& c : ra.by_cat) cpu_j += c.cpu_joules;
      return cpu_j;
    }(), ra.cycles, ra.seconds, base, low);
  }
  if (!any_lower) {
    s.rank_mhz.clear();
    appendf(s.rationale, "no rank has usable slack: keep %d MHz everywhere\n", f_base);
    return s;
  }
  s.mode = InternalSchedule::Mode::PerRank;
  // No-absorption upper bound: in a tightly-coupled app the slowed rank's
  // stretch propagates through the exchanges (CG measures ~8% for the
  // paper's 1200/800 split).
  s.predicted_delay_factor = 1.0 + max_stretch_s / makespan;
  if (run.measured_energy_j > 0) {
    s.predicted_energy_factor = predicted_j / run.measured_energy_j;
  }
  appendf(s.rationale, "per-rank schedule (predicted delay <= x%.3f, energy x%.3f)\n",
          s.predicted_delay_factor, s.predicted_energy_factor);
  return s;
}

}  // namespace pcd::profiler
