// Profile extraction and text rendering for traces (Figures 9 and 12).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/tracer.hpp"

namespace pcd::trace {

/// Totals of one rank's scopes in one category.
struct CategoryTotals {
  double seconds = 0;
  int count = 0;
  double joules = 0;      // node energy inside these scopes
  double cpu_joules = 0;  // CPU component of that energy
  double cycles = 0;      // frequency-sensitive cycles retired inside
  std::int64_t bytes = 0;
};

/// Aggregated view of one rank's trace, computed once per traced run and
/// shared with the profiler (profiler::EnergyAttribution::ranks).  Energy
/// and cycles stay zero unless the trace was collected with an energy probe
/// attached (RunConfig::profile).
struct RankProfile {
  std::array<CategoryTotals, 6> by_cat{};  // indexed by Cat
  // Running totals over every scope, summed record by record.
  double seconds = 0;
  double joules = 0;
  double cycles = 0;

  CategoryTotals& at(Cat c) { return by_cat[static_cast<std::size_t>(c)]; }
  const CategoryTotals& at(Cat c) const { return by_cat[static_cast<std::size_t>(c)]; }
  double comp_s() const { return at(Cat::Compute).seconds + at(Cat::MemStall).seconds; }
  double comm_s() const {
    return at(Cat::Send).seconds + at(Cat::Recv).seconds + at(Cat::Wait).seconds +
           at(Cat::Collective).seconds;
  }
  /// The paper's communication-to-computation ratio.
  double comm_to_comp() const { return comp_s() > 0 ? comm_s() / comp_s() : 0.0; }
};

struct TraceProfile {
  std::vector<RankProfile> ranks;
  double mean_iteration_s = 0;  // from iteration marks (rank 0)
  int iterations = 0;

  double total_comm_s() const;
  double total_comp_s() const;
  double comm_to_comp() const;
  /// Max relative deviation of per-rank busy (comp) time from the mean —
  /// the "workload is almost balanced across all nodes" check for FT.
  double imbalance() const;
};

TraceProfile analyze(const Tracer& tracer);

/// Jumpshot-like ASCII timeline: one row per rank, bucketed into `width`
/// columns, each column showing the dominant category in that time slice.
/// Legend: '#' compute, 'm' memory, 's' send, 'r' recv, 'w' wait,
/// 'A' collective, '.' idle.
std::string render_timeline(const Tracer& tracer, int width = 100);

/// Human-readable per-rank summary table (the observations drawn from the
/// paper's Jumpshot screenshots).
std::string render_profile(const TraceProfile& profile);

}  // namespace pcd::trace
