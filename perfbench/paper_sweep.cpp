// paper_sweep: the Table 2 matrix (8 NPB codes x 6 settings, scale 1.0) on
// CampaignRunner with one worker per available CPU.  Many short 8-9-rank
// runs with shallow queues; the long CG cells test work stealing.
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "analysis/reference.hpp"
#include "apps/npb.hpp"
#include "bench.hpp"
#include "campaign/runner.hpp"

namespace perfbench {
namespace {

const char* const kSettings[] = {"auto", "600", "800", "1000", "1200", "1400"};

}  // namespace

pcd::campaign::ExperimentSpec table2_spec(std::uint64_t seed) {
  using namespace pcd;
  std::vector<std::pair<std::string, std::function<void(core::RunConfig&)>>> settings{
      {"auto", [](core::RunConfig& c) { c.daemon = core::CpuspeedParams::v1_2_1(); }}};
  for (int f : {600, 800, 1000, 1200, 1400}) {
    settings.emplace_back(std::to_string(f), [f](core::RunConfig& c) { c.static_mhz = f; });
  }
  campaign::ExperimentSpec spec;
  spec.workloads(apps::all_npb(1.0))
      .base(core::RunConfigBuilder().seed(seed).build())
      .axis(campaign::Axis::strategies("setting", settings))
      .trials(1);
  return spec;
}

Table2Fit table2_fit(const Table2Raw& raw) {
  Table2Fit fit;
  double sum = 0;
  int n = 0;
  for (const auto& row : pcd::analysis::table2()) {
    const std::string code = row.code.substr(0, row.code.find('.'));
    const auto base = raw.find({row.code, "1400"});
    if (base == raw.end()) continue;
    for (const std::string setting : kSettings) {
      const auto cell = raw.find({row.code, setting});
      if (cell == raw.end()) continue;
      const double delay = cell->second.delay / base->second.delay;
      const double energy = cell->second.energy / base->second.energy;
      fit.names.push_back(code + "." + setting + ".delay");
      fit.values.push_back(delay);
      fit.names.push_back(code + "." + setting + ".energy");
      fit.values.push_back(energy);
      if (setting == "1400") continue;  // the normalization baseline
      const pcd::core::EnergyDelay paper =
          setting == "auto" ? row.auto_daemon : row.at.at(std::stoi(setting));
      auto score = [&](double sim, double pub, const char* what) {
        const double err = std::abs(sim - pub);
        sum += err;
        ++n;
        if (err > fit.max_err) {
          fit.max_err = err;
          fit.worst = code + " " + setting + " " + what;
        }
      };
      score(delay, paper.delay, "delay");
      if (row.energy_known) score(energy, paper.energy, "energy");
    }
  }
  fit.mean_err = n > 0 ? sum / n : 0;
  return fit;
}

namespace {

// Seed-1 golden outputs: the campaign fingerprint and every normalized
// Table 2 cell, per code: (delay, energy) for auto, 600, 800, 1000, 1200,
// 1400 MHz, to 4 decimals.
constexpr std::uint64_t kSeed1Fingerprint = 0x1660ca3fed791e47ULL;
const std::vector<double> kSeed1Cells = {
    1.4243, 0.9422, 1.4955, 0.8551, 1.2726, 0.8670, 1.1407, 0.8954, 1.0546, 0.9556, 1.0000, 1.0000,  // BT
    1.1366, 0.7148, 1.1517, 0.6713, 1.0854, 0.7451, 1.0455, 0.8226, 1.0190, 0.9232, 1.0000, 1.0000,  // CG
    1.0000, 1.0000, 2.2942, 1.1732, 1.7280, 1.0870, 1.3883, 1.0362, 1.1618, 1.0303, 1.0000, 1.0000,  // EP
    1.1155, 0.6808, 1.1308, 0.6368, 1.0710, 0.7178, 1.0359, 0.8029, 1.0136, 0.9123, 1.0000, 1.0000,  // FT
    1.0934, 0.7930, 1.0302, 0.5475, 1.0180, 0.6561, 0.9882, 0.7481, 0.9841, 0.8772, 1.0000, 1.0000,  // IS
    1.0000, 1.0000, 1.6349, 0.8415, 1.3571, 0.8579, 1.1905, 0.8914, 1.0794, 0.9581, 1.0000, 1.0000,  // LU
    1.3579, 0.8719, 1.3939, 0.8103, 1.2182, 0.8386, 1.1136, 0.8795, 1.0453, 0.9495, 1.0000, 1.0000,  // MG
    1.1058, 0.6717, 1.1196, 0.6361, 1.0454, 0.7044, 1.0051, 0.7805, 0.9904, 0.8911, 1.0000, 1.0000,  // SP
};

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const Options& o) : opts_(o) {}

  void setup() override {
    spec_ = table2_spec(opts_.seed);
    Span s("campaign", "campaign.expand");
    cells_ = spec_.expand().size();
  }

  void iterate(int, Iteration& it) override {
    pcd::campaign::CampaignOptions co;
    co.threads = opts_.threads;
    pcd::campaign::CampaignResult r;
    {
      Span s("campaign", "campaign.run");
      r = pcd::campaign::CampaignRunner(co).run(spec_);
    }
    for (const auto& c : r.cells) {
      it.events += c.result.events;
      it.failed += c.failures;
    }
    it.runs = static_cast<int>(r.total_runs);
    it.attempted = static_cast<int>(r.total_runs);
    fingerprints_.push_back(r.fingerprint());
    if (first_.cells.empty()) first_ = std::move(r);
  }

  void verify(Checks& c) override {
    c.expect(first_.cells.size() == cells_ && cells_ == 48, "paper_sweep expands to 48 cells");
    for (std::size_t i = 1; i < fingerprints_.size(); ++i) {
      c.expect(fingerprints_[i] == fingerprints_[0],
               "paper_sweep iteration " + std::to_string(i + 1) + " fingerprint differs");
    }
    // Thread-count independence: a serial campaign gives the same bytes.
    pcd::campaign::CampaignOptions serial;
    serial.threads = 1;
    const auto ref = pcd::campaign::CampaignRunner(serial).run(spec_);
    c.expect(ref.fingerprint() == fingerprints_[0],
             "paper_sweep fingerprint differs from the serial campaign");

    Table2Raw raw;
    for (const auto& cell : first_.cells) {
      raw[{cell.workload, cell.labels.at(0)}] = {cell.energy.median, cell.delay.median};
    }
    const Table2Fit fit = table2_fit(raw);
    c.expect(fit.values.size() == 96, "paper_sweep covers every Table 2 cell");
    // Fidelity gate at every seed: no published cell further than 0.25
    // from the paper (seed 1 worst: IS 600 MHz energy).
    c.expect(fit.max_err <= 0.25, "Table 2 max error " + std::to_string(fit.max_err) +
                                      " at " + fit.worst + " exceeds 0.25");
    std::fprintf(stderr, "table2: fingerprint %016" PRIx64 " max_err %.4f (%s) mean_err %.4f\n",
                 fingerprints_[0], fit.max_err, fit.worst.c_str(), fit.mean_err);
    if (opts_.seed == 1) {
      const std::int64_t failed_before = c.failed;
      c.expect(fingerprints_[0] == kSeed1Fingerprint, "paper_sweep seed-1 fingerprint");
      c.expect(kSeed1Cells.size() == fit.values.size(), "seed-1 Table 2 golden size");
      for (std::size_t i = 0; i < fit.values.size() && i < kSeed1Cells.size(); ++i) {
        c.near(fit.values[i], kSeed1Cells[i], 5.01e-5, "Table 2 seed-1 " + fit.names[i]);
      }
      if (c.failed != failed_before) {
        std::fprintf(stderr, "seed-1 Table 2 as simulated:");
        for (std::size_t i = 0; i < fit.values.size(); ++i) {
          std::fprintf(stderr, "%s%.4f", i % 12 == 0 ? "\n" : ", ", fit.values[i]);
        }
        std::fprintf(stderr, "\n");
      }
    }
  }

  std::vector<RunJob> first_iteration_jobs() const override {
    std::vector<RunJob> jobs;
    const auto& entries = spec_.workload_entries();
    for (const auto& plan : spec_.expand()) {
      jobs.push_back({entries.at(plan.workload).second, plan.config});
    }
    return jobs;
  }

 private:
  Options opts_;
  pcd::campaign::ExperimentSpec spec_;
  std::size_t cells_ = 0;
  std::vector<std::uint64_t> fingerprints_;
  pcd::campaign::CampaignResult first_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(const Options& o) {
  return std::make_unique<PaperSweep>(o);
}

}  // namespace perfbench
