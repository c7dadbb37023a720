#include "telemetry/sampler.hpp"

#include <algorithm>

namespace pcd::telemetry {

TimeSeriesSampler::TimeSeriesSampler(sim::Engine& engine, int nodes,
                                     SamplerParams params, Probe probe,
                                     MetricsRegistry* registry)
    : engine_(engine),
      params_(params),
      probe_(std::move(probe)),
      registry_(registry),
      last_busy_ns_(nodes, 0) {
  series_.reserve(nodes);
  for (int i = 0; i < nodes; ++i) series_.emplace_back(params_.capacity);
  if (registry_ != nullptr) {
    registry_->set_help("node_power_watts", "Instantaneous node power draw");
    registry_->set_help("node_freq_mhz", "CPU operating frequency at the last sample");
    registry_->set_help("node_utilization", "Busy fraction of the CPU over the sample period");
    for (int i = 0; i < nodes; ++i) {
      const Labels l = label("node", i);
      g_power_.push_back(&registry_->gauge("node_power_watts", l));
      g_freq_.push_back(&registry_->gauge("node_freq_mhz", l));
      g_util_.push_back(&registry_->gauge("node_utilization", l));
    }
  }
}

void TimeSeriesSampler::start() {
  if (running_) return;
  running_ = true;
  last_tick_ = engine_.now();
  for (int i = 0; i < nodes(); ++i) last_busy_ns_[i] = probe_(i).busy_weighted_ns;
  next_tick_ =
      engine_.schedule_every(sim::from_seconds(params_.period_s), [this] { tick(); },
                             "telemetry.sample");
}

void TimeSeriesSampler::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(next_tick_);
  next_tick_ = {};
}

void TimeSeriesSampler::tick() {
  ++ticks_;
  if (prelude_) prelude_();
  const sim::SimTime now = engine_.now();
  const double period_ns = static_cast<double>(now - last_tick_);
  for (int i = 0; i < nodes(); ++i) {
    const NodeProbe p = probe_(i);
    NodeSample s;
    s.t = now;
    s.freq_mhz = p.freq_mhz;
    s.utilization =
        period_ns > 0
            ? std::clamp((p.busy_weighted_ns - last_busy_ns_[i]) / period_ns, 0.0, 1.0)
            : 0.0;
    s.watts_cpu = p.watts_cpu;
    s.watts_memory = p.watts_memory;
    s.watts_disk = p.watts_disk;
    s.watts_nic = p.watts_nic;
    s.watts_other = p.watts_other;
    last_busy_ns_[i] = p.busy_weighted_ns;
    if (registry_ != nullptr) {
      g_power_[i]->set(s.watts_total());
      g_freq_[i]->set(s.freq_mhz);
      g_util_[i]->set(s.utilization);
    }
    series_[i].push(std::move(s));
  }
  last_tick_ = now;
}

}  // namespace pcd::telemetry
