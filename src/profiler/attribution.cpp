#include <algorithm>
#include <map>
#include <utility>

#include "profiler/profiler.hpp"

namespace pcd::profiler {

RunTrace capture(const trace::Tracer& tracer, const cpu::OperatingPointTable& table,
                 int profile_mhz) {
  RunTrace run;
  run.table = table;
  run.profile_mhz = profile_mhz;
  run.records.reserve(static_cast<std::size_t>(tracer.ranks()));
  for (int r = 0; r < tracer.ranks(); ++r) {
    run.records.push_back(tracer.records(r));
    for (const auto& rec : run.records.back()) run.t_end = std::max(run.t_end, rec.end);
  }
  run.messages = tracer.messages();
  for (const auto& m : run.messages) {
    run.t_end = std::max({run.t_end, m.t_delivered, m.t_recv_done});
  }
  return run;
}

EnergyAttribution attribute(const RunTrace& run, std::vector<trace::RankProfile> ranks) {
  EnergyAttribution out;
  out.ranks = std::move(ranks);

  // Label aggregation keyed by (label, category); per-rank partial sums
  // feed the max_rank_* fields.
  struct LabelAccum {
    LabelAttribution total;
    std::vector<double> rank_seconds, rank_cycles;
    std::vector<int> rank_count;
  };
  std::map<std::pair<std::string, int>, LabelAccum> labels;

  for (int r = 0; r < run.ranks(); ++r) {
    for (const auto& rec : run.records[static_cast<std::size_t>(r)]) {
      const double dur = sim::to_seconds(rec.end - rec.begin);
      out.scoped_j += rec.energy_j;

      auto& acc = labels[{rec.label, static_cast<int>(rec.cat)}];
      if (acc.rank_seconds.empty()) {
        acc.total.label = rec.label;
        acc.total.cat = rec.cat;
        acc.rank_seconds.resize(static_cast<std::size_t>(run.ranks()), 0);
        acc.rank_cycles.resize(static_cast<std::size_t>(run.ranks()), 0);
        acc.rank_count.resize(static_cast<std::size_t>(run.ranks()), 0);
      }
      acc.total.seconds += dur;
      acc.total.joules += rec.energy_j;
      acc.total.cpu_joules += rec.cpu_energy_j;
      acc.total.cycles += rec.cycles;
      ++acc.total.count;
      acc.rank_seconds[static_cast<std::size_t>(r)] += dur;
      acc.rank_cycles[static_cast<std::size_t>(r)] += rec.cycles;
      ++acc.rank_count[static_cast<std::size_t>(r)];
    }
  }

  for (auto& [key, acc] : labels) {
    for (int r = 0; r < run.ranks(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (acc.rank_seconds[i] > acc.total.max_rank_seconds) {
        // Pick the single busiest rank's view atomically so seconds,
        // cycles, and count describe the same rank.
        acc.total.max_rank_seconds = acc.rank_seconds[i];
        acc.total.max_rank_cycles = acc.rank_cycles[i];
        acc.total.max_rank_count = acc.rank_count[i];
      }
    }
    out.labels.push_back(std::move(acc.total));
  }
  std::sort(out.labels.begin(), out.labels.end(),
            [](const LabelAttribution& a, const LabelAttribution& b) {
              if (a.joules != b.joules) return a.joules > b.joules;
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.label < b.label;
            });
  return out;
}

ProfileResult profile(const trace::Tracer& tracer, std::vector<trace::RankProfile> ranks,
                      const cpu::OperatingPointTable& table, int profile_mhz,
                      double measured_delay_s, double measured_energy_j) {
  ProfileResult prof;
  prof.run = capture(tracer, table, profile_mhz);
  prof.run.measured_delay_s = measured_delay_s;
  prof.run.measured_energy_j = measured_energy_j;
  prof.attribution = attribute(prof.run, std::move(ranks));
  prof.slack = analyze_slack(prof.run);
  return prof;
}

}  // namespace pcd::profiler
