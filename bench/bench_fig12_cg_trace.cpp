// Figure 12: performance trace of CG.C.8, verifying the observations that
// drive the heterogeneous internal scheduling decision:
//   1. CG is communication-intensive and synchronizes every cycle;
//   2. Wait and Send are the major communication events;
//   3. cycles are short, so transition overhead cannot be ignored;
//   4. ranks 4-7 have a larger comm-to-comp ratio than ranks 0-3.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "trace/profile.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading("Figure 12: CG.C.8 performance trace").c_str());

  const core::RunConfig cfg = core::RunConfigBuilder(bench::base_config(args))
                                  .collect_trace(true)
                                  .build();
  const double scale = std::min(args.scale, 0.05);  // a few hundred cycles
  const auto result = core::run_workload(apps::make_cg(scale), cfg);

  std::printf("%s\n", result.timeline.c_str());
  std::printf("%s\n", trace::render_profile(*result.profile).c_str());

  const auto& p = *result.profile;
  double wait_s = 0, comm_s = 0;
  for (const auto& r : p.ranks) {
    wait_s += r.at(trace::Cat::Wait).seconds;
    comm_s += r.comm_s();
  }
  double lower_ratio = 0, upper_ratio = 0;
  const int half = static_cast<int>(p.ranks.size()) / 2;
  for (int r = 0; r < static_cast<int>(p.ranks.size()); ++r) {
    (r < half ? lower_ratio : upper_ratio) += p.ranks[r].comm_to_comp() / half;
  }

  std::printf("observations (paper expectations):\n");
  std::printf("  1. comm:comp = %.2f : 1 (paper: communication-intensive) %s\n",
              p.comm_to_comp(), p.comm_to_comp() > 0.8 ? "[ok]" : "[off]");
  std::printf("  2. Wait share of comm = %.0f%% (paper: Wait/Send dominant) %s\n",
              100 * wait_s / comm_s, wait_s / comm_s > 0.5 ? "[ok]" : "[off]");
  std::printf("  3. cycle time = %.1f ms, ~%.0fx the ~25 us transition cost "
              "(paper: overhead not ignorable at phase granularity)\n",
              1000 * p.mean_iteration_s / 24, p.mean_iteration_s / 24 / 25e-6);
  std::printf("  4. comm/comp ranks 0-%d = %.2f vs ranks %d-%d = %.2f "
              "(paper: upper ranks larger) %s\n",
              half - 1, lower_ratio, half, static_cast<int>(p.ranks.size()) - 1,
              upper_ratio, upper_ratio > 1.5 * lower_ratio ? "[ok]" : "[off]");
  return 0;
}
