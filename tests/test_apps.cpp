// Tests for the workload framework and the NPB replicas' structural
// properties (the trace observations the paper's scheduling relies on).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/npb.hpp"
#include "core/runner.hpp"
#include "trace/profile.hpp"

using namespace pcd;

TEST(Workloads, RegistryHasAllEightNpbCodes) {
  const auto all = apps::all_npb(0.1);
  ASSERT_EQ(all.size(), 8u);
  const char* expected[] = {"BT.C.9", "CG.C.8", "EP.C.8", "FT.C.8",
                            "IS.C.8", "LU.C.8", "MG.C.8", "SP.C.9"};
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_TRUE(all[i].make_rank != nullptr);
    EXPECT_FALSE(all[i].description.empty());
  }
}

TEST(Workloads, PaperRankCounts) {
  EXPECT_EQ(apps::make_bt(1).ranks, 9);   // BT.C.9
  EXPECT_EQ(apps::make_sp(1).ranks, 9);   // SP.C.9
  EXPECT_EQ(apps::make_ft(1).ranks, 8);
  EXPECT_EQ(apps::make_cg(1).ranks, 8);
  EXPECT_EQ(apps::make_swim(1).ranks, 1);
  EXPECT_EQ(apps::make_micro_comm_bound(1).ranks, 2);
}

TEST(Workloads, LookupByNameIsCaseInsensitiveAndPrefixed) {
  EXPECT_TRUE(apps::npb_by_name("FT").has_value());
  EXPECT_TRUE(apps::npb_by_name("ft").has_value());
  EXPECT_TRUE(apps::npb_by_name("Ft.C.8").has_value());
  EXPECT_TRUE(apps::npb_by_name("swim").has_value());
  EXPECT_FALSE(apps::npb_by_name("ZZ").has_value());
  EXPECT_EQ(apps::npb_by_name("cg")->name, "CG.C.8");
}

namespace {

core::RunResult run_traced(const apps::Workload& w, double /*scale_unused*/ = 0) {
  core::RunConfig cfg;
  cfg.collect_trace = true;
  return core::run_workload(w, cfg);
}

}  // namespace

TEST(Workloads, AllCodesRunToCompletionAtTinyScale) {
  for (const auto& w : apps::all_npb(0.02)) {
    core::RunConfig cfg;
    const auto r = core::run_workload(w, cfg);
    EXPECT_GT(r.delay_s, 0) << w.name;
    EXPECT_GT(r.energy_j, 0) << w.name;
  }
}

TEST(Workloads, FtMatchesFigure9Observations) {
  const auto r = run_traced(apps::make_ft(0.15));
  const auto& p = *r.profile;
  // 1. communication bound, comm:comp about 2:1.
  EXPECT_GT(p.comm_to_comp(), 1.3);
  EXPECT_LT(p.comm_to_comp(), 2.8);
  // 2. alltoall dominates communication.
  double coll = 0, comm = 0;
  for (const auto& rp : p.ranks) {
    coll += rp.at(trace::Cat::Collective).seconds;
    comm += rp.comm_s();
  }
  EXPECT_GT(coll / comm, 0.8);
  // 4. balanced across ranks.
  EXPECT_LT(p.imbalance(), 0.1);
}

TEST(Workloads, CgMatchesFigure12Observations) {
  const auto r = run_traced(apps::make_cg(0.05));
  const auto& p = *r.profile;
  // Wait dominates communication.
  double wait = 0, comm = 0;
  for (const auto& rp : p.ranks) {
    wait += rp.at(trace::Cat::Wait).seconds;
    comm += rp.comm_s();
  }
  EXPECT_GT(wait / comm, 0.5);
  // Ranks 4-7 have larger comm-to-comp ratios than ranks 0-3.
  for (int lower = 0; lower < 4; ++lower) {
    for (int upper = 4; upper < 8; ++upper) {
      EXPECT_GT(p.ranks[upper].comm_to_comp(),
                p.ranks[lower].comm_to_comp()) << lower << "," << upper;
    }
  }
}

TEST(Workloads, EpIsComputeDominated) {
  const auto r = run_traced(apps::make_ep(0.1));
  const auto& p = *r.profile;
  EXPECT_LT(p.comm_to_comp(), 0.05);
}

TEST(Workloads, SwimIsMemoryBound) {
  const auto r = run_traced(apps::make_swim(0.2));
  const auto& p = *r.profile;
  EXPECT_GT(p.ranks[0].at(trace::Cat::MemStall).seconds,
            2.0 * p.ranks[0].at(trace::Cat::Compute).seconds);
  EXPECT_DOUBLE_EQ(p.ranks[0].comm_s(), 0.0);
}

TEST(Workloads, MicrobenchmarkCharacters) {
  const auto cpu = run_traced(apps::make_micro_cpu_bound(0.2));
  EXPECT_DOUBLE_EQ(cpu.profile->ranks[0].at(trace::Cat::MemStall).seconds, 0.0);

  const auto mem = run_traced(apps::make_micro_memory_bound(0.2));
  const auto& mem_rank = mem.profile->ranks[0];
  EXPECT_GT(mem_rank.at(trace::Cat::MemStall).seconds,
            5.0 * mem_rank.at(trace::Cat::Compute).seconds);

  const auto comm = run_traced(apps::make_micro_comm_bound(0.2));
  double total_comm = 0, total_comp = 0;
  for (const auto& rp : comm.profile->ranks) {
    total_comm += rp.comm_s();
    total_comp += rp.comp_s();
  }
  EXPECT_GT(total_comm, total_comp);
}

TEST(Workloads, ScaleShortensRuns) {
  core::RunConfig cfg;
  const auto small = core::run_workload(apps::make_ft(0.1), cfg);
  const auto large = core::run_workload(apps::make_ft(0.3), cfg);
  EXPECT_GT(large.delay_s, 2.0 * small.delay_s);
}

TEST(Workloads, InternalHooksFireAtPaperInsertionPoints) {
  // FT: before/after the marked all-to-all, once per iteration per rank.
  int before = 0, after = 0, at_start = 0;
  apps::DvsHooks hooks;
  hooks.at_start = [&](mpi::Comm&, int) { ++at_start; };
  hooks.before_marked_comm = [&](mpi::Comm&, int) { ++before; };
  hooks.after_marked_comm = [&](mpi::Comm&, int) { ++after; };
  core::RunConfig cfg;
  cfg.hooks = hooks;
  auto ft = apps::make_ft(0.1);  // 2 iterations
  core::run_workload(ft, cfg);
  EXPECT_EQ(at_start, ft.ranks);
  EXPECT_EQ(before, after);
  EXPECT_EQ(before % ft.ranks, 0);
  EXPECT_GE(before / ft.ranks, 2);
}

TEST(Workloads, WaitHooksFireForCg) {
  int waits = 0;
  apps::DvsHooks hooks;
  hooks.before_wait = [&](mpi::Comm&, int) { ++waits; };
  core::RunConfig cfg;
  cfg.hooks = hooks;
  core::run_workload(apps::make_cg(0.01), cfg);
  EXPECT_GT(waits, 0);
}
