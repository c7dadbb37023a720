#include "core/strategies.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "cpu/operating_point.hpp"

namespace pcd::core {

Crescendo StaticSweep::normalized() const {
  if (points.empty()) throw std::invalid_argument("empty sweep");
  const SweepPoint* base = nullptr;
  for (const auto& p : points) {
    if (p.freq_mhz == base_mhz) base = &p;
  }
  if (base == nullptr) throw std::invalid_argument("sweep missing the base frequency");
  Crescendo c;
  for (const auto& p : points) {
    c[p.freq_mhz] = EnergyDelay{p.result.energy_j / base->result.energy_j,
                                p.result.delay_s / base->result.delay_s};
  }
  return c;
}

ExternalDecision run_external(const apps::Workload& workload, const RunConfig& config,
                              const StaticSweep& sweep, Metric metric) {
  const auto choice = select_operating_point(sweep.normalized(), metric);
  RunConfig c = config;
  c.static_mhz = choice.freq_mhz;
  ExternalDecision d;
  d.choice = choice;
  d.result = run_workload(workload, c);
  return d;
}

namespace {

// All INTERNAL hooks funnel through here so the decision log attributes
// them uniformly (cause = Internal, detail = insertion-point label).
void internal_set(mpi::Comm& comm, int rank, int mhz, const char* insertion_point) {
  comm.node(rank).set_cpuspeed(mhz, telemetry::DvsCause::Internal,
                               std::numeric_limits<double>::quiet_NaN(),
                               insertion_point);
}

}  // namespace

apps::DvsHooks internal_phase_hooks(int high_mhz, int low_mhz) {
  apps::DvsHooks h;
  h.before_marked_comm = [low_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, low_mhz, "before marked comm (Fig. 10)");
  };
  h.after_marked_comm = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "after marked comm (Fig. 10)");
  };
  // Start every rank at the high speed, like the paper's Figure 10 preamble.
  h.at_start = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "at start");
  };
  return h;
}

apps::DvsHooks internal_rank_speed_hooks(std::function<int(int)> mhz_of_rank) {
  apps::DvsHooks h;
  h.at_start = [fn = std::move(mhz_of_rank)](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, fn(rank), "per-rank speed (Fig. 13)");
  };
  return h;
}

apps::DvsHooks internal_comm_scaling_hooks(int high_mhz, int low_mhz) {
  apps::DvsHooks h;
  h.at_start = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "at start");
  };
  h.before_any_comm = [low_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, low_mhz, "before any comm (rejected policy 1)");
  };
  h.after_any_comm = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "after any comm (rejected policy 1)");
  };
  return h;
}

apps::DvsHooks hooks_for(const profiler::InternalSchedule& schedule) {
  switch (schedule.mode) {
    case profiler::InternalSchedule::Mode::Phase:
      return internal_phase_hooks(schedule.high_mhz, schedule.low_mhz);
    case profiler::InternalSchedule::Mode::PerRank:
      return internal_rank_speed_hooks([speeds = schedule.rank_mhz](int rank) {
        // Defensive modulo: a schedule derived from an N-rank profile may be
        // applied to a run with a different rank count.
        return speeds.empty() ? 0
                              : speeds[static_cast<std::size_t>(rank) % speeds.size()];
      });
    case profiler::InternalSchedule::Mode::None:
      break;
  }
  return {};
}

apps::DvsHooks internal_wait_scaling_hooks(int high_mhz, int low_mhz) {
  apps::DvsHooks h;
  h.at_start = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "at start");
  };
  h.before_wait = [low_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, low_mhz, "before wait (rejected policy 2)");
  };
  h.after_wait = [high_mhz](mpi::Comm& comm, int rank) {
    internal_set(comm, rank, high_mhz, "after wait (rejected policy 2)");
  };
  return h;
}

}  // namespace pcd::core
