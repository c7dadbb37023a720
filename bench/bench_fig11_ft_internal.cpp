// Figure 11: FT.C.8 under INTERNAL control (1400 MHz compute / 600 MHz
// all-to-all, Figure 10's insertion) vs every EXTERNAL setting vs CPUSPEED.
//
// Paper: internal saves 36% energy with no noticeable delay; external@600
// saves 38% at 13% delay; CPUSPEED saves 24% at 4% delay.  All settings
// are one strategy axis of a single campaign.
#include <cstdio>

#include "analysis/reference.hpp"
#include "bench/bench_common.hpp"

using namespace pcd;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  std::printf("%s", analysis::heading(
      "Figure 11: FT.C.8 — INTERNAL vs EXTERNAL vs CPUSPEED").c_str());

  std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> settings{
      {"internal 1400/600",
       [](core::RunConfig& c) { c.hooks = core::internal_phase_hooks(1400, 600); }}};
  for (int f : bench::nemo_freqs()) {
    settings.emplace_back("external " + std::to_string(f),
                          [f](core::RunConfig& c) { c.static_mhz = f; });
  }
  settings.emplace_back("cpuspeed (auto)", [](core::RunConfig& c) {
    c.daemon = core::CpuspeedParams::v1_2_1();
  });

  campaign::ExperimentSpec spec;
  spec.workload(apps::make_ft(args.scale))
      .base(bench::base_config(args))
      .axis(campaign::Axis::strategies("setting", settings))
      .trials(args.trials);
  const auto result = bench::run(spec, args);
  const std::string ft = spec.workload_entries().front().first;
  const std::vector<std::string> baseline{"external 1400"};

  analysis::TextTable t({"setting", "normalized delay", "normalized energy"});
  auto add = [&](const std::string& label, double pd, double pe) {
    const auto ed = bench::normalized(result, ft, {label}, baseline);
    t.add_row({label, analysis::vs_paper(ed.delay, pd),
               analysis::vs_paper(ed.energy, pe)});
  };

  const auto& paper_internal = analysis::figure11_ft().front().value;
  add("internal 1400/600", paper_internal.delay, paper_internal.energy);
  const auto* ref = analysis::table2_row("FT");
  for (int f : bench::nemo_freqs()) {
    add("external " + std::to_string(f), ref ? ref->at.at(f).delay : -1,
        ref ? ref->at.at(f).energy : -1);
  }
  add("cpuspeed (auto)", ref ? ref->auto_daemon.delay : -1,
      ref ? ref->auto_daemon.energy : -1);

  std::printf("%s\n", t.str().c_str());
  std::printf("Paper: INTERNAL saves 36%% with no noticeable delay — better than "
              "both external@600 (38%% at 13%% delay) and CPUSPEED (24%% at 4%%).\n");
  const auto* internal = result.find(ft, {"internal 1400/600"});
  std::printf("internal run: %lld DVS transitions across %d ranks\n",
              static_cast<long long>(internal->result.dvs_transitions),
              spec.workload_entries().front().second.ranks);
  return 0;
}
