#include "fault/report.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

namespace pcd::fault {

void FaultReport::record(double t_s, int node, const char* kind, const char* phase,
                         std::string detail) {
  // Lifecycle counters derive from the phase so every producer (injector,
  // watchdogs, node brown-out path) stays consistent with the event list.
  if (std::strcmp(phase, "injected") == 0) ++injected;
  else if (std::strcmp(phase, "cleared") == 0) ++cleared;
  else if (std::strcmp(phase, "detected") == 0) ++detections;
  else if (std::strcmp(phase, "recovered") == 0) ++recoveries;
  events.push_back({t_s, node, kind, phase, std::move(detail)});
}

std::string FaultReport::summary() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "faults: %lld injected, %lld cleared, %lld detected, %lld recovered\n",
                static_cast<long long>(injected), static_cast<long long>(cleared),
                static_cast<long long>(detections), static_cast<long long>(recoveries));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "resilience: %lld daemon restarts, %lld fallbacks to full speed, "
                "%lld node reboots, %lld checkpoints\n",
                static_cast<long long>(daemon_restarts),
                static_cast<long long>(fallbacks),
                static_cast<long long>(node_reboots),
                static_cast<long long>(checkpoints));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "costs: %.2f s checkpoint stall, %.2f s node downtime, %.2f s redo, "
                "%.2f s restart backoff, %lld DVS writes dropped\n",
                checkpoint_stall_s, node_downtime_s, redo_s, daemon_backoff_s,
                static_cast<long long>(dvs_requests_dropped));
  out += buf;
  if (run_failed) {
    out += "RUN FAILED: " + failure + "\n";
  }
  for (const auto& e : events) {
    std::snprintf(buf, sizeof buf, "  [%9.3f s] node %2d %-14s %-9s %s\n", e.t_s,
                  e.node, e.kind.c_str(), e.phase.c_str(), e.detail.c_str());
    out += buf;
  }
  return out;
}

}  // namespace pcd::fault
