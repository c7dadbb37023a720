// Golden pins: values recorded from a known-good build.  The other
// determinism tests compare two runs of one build, so a change that shifts
// every run the same way passes them; these catch that.  A failure here
// means simulated behaviour changed — if the change is intended, record the
// new values and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/advisor_report.hpp"
#include "apps/npb.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/runner.hpp"
#include "sim/provenance.hpp"
#include "telemetry/determinism.hpp"
#include "trace/profile.hpp"

namespace pcd {
namespace {

// The bench_campaign_scaling matrix at --scale 0.1 with the bench defaults
// (seed 1): 8 NPB codes x the NEMO static frequencies x 3 trials.
TEST(Golden, CampaignFingerprintAtScale01) {
  core::RunConfig base;
  base.seed = 1;
  campaign::ExperimentSpec spec;
  spec.workloads(apps::all_npb(0.1))
      .base(base)
      .axis(campaign::Axis::static_mhz({600, 800, 1000, 1200, 1400}))
      .trials(3);
  const auto result = campaign::CampaignRunner(campaign::CampaignOptions{}).run(spec);
  EXPECT_EQ(result.fingerprint(), 0x1fd66240fede87c1ULL);
}

std::uint64_t digest_root(const apps::Workload& w) {
  core::RunConfig cfg;
  cfg.determinism.digest = true;
  const auto r = core::run_workload(w, cfg);
  EXPECT_TRUE(r.determinism.has_value());
  return r.determinism ? r.determinism->digest.root() : 0;
}

TEST(Golden, FtDigestRootAtScale01) {
  EXPECT_EQ(digest_root(apps::make_ft(0.1)), 0x70c087a9a4dcc1d2ULL);
}

TEST(Golden, CgDigestRootAtScale01) {
  EXPECT_EQ(digest_root(apps::make_cg(0.1)), 0x4fefccceb3af4113ULL);
}

// The profiler path end to end: the per-rank trace table and the advisor
// report of a profiled run print every per-rank, per-category and per-label
// total the trace reduction computes.
core::RunResult profiled(const apps::Workload& w) {
  core::RunConfig cfg;
  cfg.profile = true;
  return core::run_workload(w, cfg);
}

std::uint64_t advisor_report_digest(const apps::Workload& w) {
  const auto r = profiled(w);
  EXPECT_TRUE(r.profiler.has_value());
  if (!r.profiler) return 0;
  return sim::digest_cstr(
      analysis::advisor_report_text(*r.profiler, profiler::advise(*r.profiler)).c_str());
}

TEST(Golden, FtTraceProfileTableAtScale01) {
  const auto r = profiled(apps::make_ft(0.1));
  ASSERT_TRUE(r.profile.has_value());
  EXPECT_EQ(sim::digest_cstr(trace::render_profile(*r.profile).c_str()),
            0xaa4ff815d1c6f18aULL);
}

TEST(Golden, FtAdvisorReportAtScale01) {
  EXPECT_EQ(advisor_report_digest(apps::make_ft(0.1)), 0x3dc8a9b4f06689f9ULL);
}

TEST(Golden, CgAdvisorReportAtScale01) {
  EXPECT_EQ(advisor_report_digest(apps::make_cg(0.1)), 0x50b4e1a68efb53d8ULL);
}

}  // namespace
}  // namespace pcd
