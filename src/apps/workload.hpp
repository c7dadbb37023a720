// Workload framework: applications as coroutine "phase programs".
//
// Each NPB replica (and swim, and the microbenchmarks) is a factory that
// builds one rank process.  Rank processes interleave:
//   - compute phases (on-chip cycles + memory stalls, sliced so utilization
//     sampling and power traces see realistic interleave),
//   - MPI communication with the paper's per-code patterns.
//
// INTERNAL scheduling (paper §3.3/§5.3) attaches through DvsHooks: the
// workload calls the hooks at the same source locations where the paper
// inserts set_cpuspeed() calls (Figures 10 and 13).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/op.hpp"
#include "sim/process.hpp"
#include "trace/tracer.hpp"

namespace pcd::apps {

/// Hook points for INTERNAL DVS control, mirroring where API calls are
/// inserted in the paper's source listings.
struct DvsHooks {
  using Fn = std::function<void(mpi::Comm&, int rank)>;
  /// Called once per rank at MPI_Init time (heterogeneous per-rank speeds,
  /// Figure 13).
  Fn at_start;
  /// Called around the dominant communication phase the profile identified
  /// (Figure 10: set_cpuspeed(low) before mpi_alltoall, high after).
  Fn before_marked_comm;
  Fn after_marked_comm;
  /// Called around *every* communication call — the first rejected CG
  /// policy (§5.3.2: "scale down CPU speed during communication").
  Fn before_any_comm;
  Fn after_any_comm;
  /// Called around every MPI_Wait — the second rejected CG policy.
  Fn before_wait;
  Fn after_wait;
};

/// Shared context handed to every rank process.
struct AppContext {
  mpi::Comm* comm = nullptr;
  trace::Tracer* tracer = nullptr;
  const DvsHooks* hooks = nullptr;
  /// Compute phases are sliced into chunks of roughly this duration so the
  /// CPUSPEED daemon's utilization windows see the true busy/idle mix.
  double slice_s = 0.050;

  void call(const DvsHooks::Fn& fn, int rank) const {
    if (hooks != nullptr && fn) fn(*comm, rank);
  }
};

/// A runnable workload: name + rank count + rank-process factory.
struct Workload {
  std::string name;        // e.g. "FT.C.8"
  int ranks = 1;
  int iterations = 1;
  std::string description;
  std::function<sim::Process(AppContext&, int rank)> make_rank;
};

/// Executes a compute phase: `onchip_s` of on-chip work (expressed in
/// seconds at the node's top frequency) interleaved with `mem_s` of
/// frequency-insensitive memory stalls, sliced per ctx.slice_s.
/// `mem_act` overrides the power activity of the stalls (< 0 = default);
/// cache-miss-bound compute (LU) keeps the core nearly fully active while
/// streaming stalls (swim) do not.
sim::Op<> compute_phase(AppContext& ctx, int rank, double onchip_s, double mem_s,
                        double mem_act = -1);

}  // namespace pcd::apps
