// Engine-driven time-series sampler: periodically snapshots per-node power
// (total and per-component, Figure-1 style), current frequency, and
// /proc-style utilization into fixed-capacity ring buffers.
//
// The sampler only *reads* model state through a probe callback, so an
// enabled sampler never perturbs the simulation: delay and energy of a run
// are bit-identical with sampling on or off (verified in tests).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"

namespace pcd::telemetry {

/// Raw per-node readings the probe supplies each tick.
struct NodeProbe {
  int freq_mhz = 0;
  double busy_weighted_ns = 0;  // cumulative /proc-style busy time
  double watts_cpu = 0;
  double watts_memory = 0;
  double watts_disk = 0;
  double watts_nic = 0;
  double watts_other = 0;
};

/// One stored sample (probe + derived utilization + timestamp).
struct NodeSample {
  sim::SimTime t = 0;
  int freq_mhz = 0;
  double utilization = 0;  // busy fraction over the elapsed sample period
  double watts_cpu = 0;
  double watts_memory = 0;
  double watts_disk = 0;
  double watts_nic = 0;
  double watts_other = 0;

  double watts_total() const {
    return watts_cpu + watts_memory + watts_disk + watts_nic + watts_other;
  }
};

/// Fixed-capacity ring buffer; overwrites the oldest entry when full.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {}

  void push(T v) {
    if (data_.size() < capacity_) {
      data_.push_back(std::move(v));
    } else {
      data_[head_] = std::move(v);
      head_ = (head_ + 1) % capacity_;
      ++overwritten_;
    }
  }

  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::int64_t overwritten() const { return overwritten_; }

  /// Contents oldest-first.
  std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) {
      out.push_back(data_[(head_ + i) % data_.size()]);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // oldest element once full
  std::int64_t overwritten_ = 0;
  std::vector<T> data_;
};

struct SamplerParams {
  double period_s = 0.050;       // sampling interval
  std::size_t capacity = 16384;  // per-node ring capacity
};

class TimeSeriesSampler {
 public:
  using Probe = sim::InlineFunction<NodeProbe(int node)>;

  /// `registry` is optional; when given, each tick also refreshes the
  /// per-node gauges node_power_watts / node_freq_mhz / node_utilization.
  TimeSeriesSampler(sim::Engine& engine, int nodes, SamplerParams params,
                    Probe probe, MetricsRegistry* registry = nullptr);
  ~TimeSeriesSampler() { stop(); }

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  /// Optional hook run once at the top of every tick, before any per-node
  /// probe.  The runner points it at the cluster arena's batch refresh
  /// (power::NodeStateArena::refresh_all) so a tick costs one dense sweep
  /// plus N cached reads instead of N scalar refreshes.
  void set_tick_prelude(sim::InlineFunction<void()> prelude) {
    prelude_ = std::move(prelude);
  }

  int nodes() const { return static_cast<int>(series_.size()); }
  std::int64_t ticks() const { return ticks_; }
  const SamplerParams& params() const { return params_; }

  /// Samples for one node, oldest-first.
  std::vector<NodeSample> samples(int node) const { return series_.at(node).to_vector(); }
  std::int64_t overwritten(int node) const { return series_.at(node).overwritten(); }

 private:
  void tick();

  sim::Engine& engine_;
  SamplerParams params_;
  Probe probe_;
  sim::InlineFunction<void()> prelude_;
  MetricsRegistry* registry_;
  std::vector<RingBuffer<NodeSample>> series_;
  std::vector<double> last_busy_ns_;
  std::vector<Gauge*> g_power_, g_freq_, g_util_;
  sim::SimTime last_tick_ = 0;
  bool running_ = false;
  std::int64_t ticks_ = 0;
  sim::EventId next_tick_;  // persistent periodic timer; invalid when stopped
};

}  // namespace pcd::telemetry
