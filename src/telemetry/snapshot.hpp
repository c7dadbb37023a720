// TelemetrySnapshot: the portable, run-scoped copy of everything the
// telemetry layer collected — attached to core::RunResult so callers can
// inspect or export after the engine and cluster are gone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/decision_log.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"

namespace pcd::telemetry {

struct TelemetrySnapshot {
  /// Flattened registry at run end.
  std::vector<MetricSample> metrics;
  /// DVS decision log (requests with cause attribution).
  std::vector<DvsDecision> decisions;
  std::int64_t decisions_dropped = 0;
  /// Completed transitions as observed at the CPUs.
  std::vector<DvsTransition> transitions;
  /// Fault lifecycle events (inject/clear/detect/recover), time-ordered.
  std::vector<FaultLogEntry> faults;
  /// Per-node sampler series, oldest-first (empty when sampling was off).
  std::vector<std::vector<NodeSample>> series;
  double sample_period_s = 0;
  /// Chrome trace-event JSON (tracer scopes + DVS instants + power
  /// counters); empty when no trace was collected.
  std::string chrome_trace_json;

  /// Value of a counter/gauge series, or `fallback` if absent.
  double metric_value(const std::string& name, const Labels& labels = {},
                      double fallback = -1) const;
};

/// Copies hub (and optionally sampler) state into a snapshot.
TelemetrySnapshot make_snapshot(const Hub& hub,
                                const TimeSeriesSampler* sampler = nullptr);

}  // namespace pcd::telemetry
