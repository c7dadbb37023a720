// Shared plumbing of the repository benchmark (see perfbench/README.md):
// host clocks and resource usage, order statistics, the span log behind
// traced runs, output checks, and the workload interface every workload
// implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload.hpp"
#include "campaign/spec.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "service/request.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
/// User + system CPU time of the whole process (every thread), getrusage.
double cpu_seconds();
/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" rule of Python's statistics.quantiles); 0 for no samples.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- spans -----------------------------------------------------------------

/// In-memory span log for the traced run.  Spans are recorded only from the
/// benchmark's own code, around each call into a library layer, and only on
/// the benchmark's main thread; they are written out when the run ends.
struct SpanRecord {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

class SpanLog {
 public:
  static SpanLog& get();

  bool enabled = false;

  int open(const char* layer, const char* name);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" complete events, parent in args).
  std::string chrome_json() const;

  struct LayerTime {
    std::string layer;
    int calls = 0;
    double total_s = 0;
    double self_s = 0;  // span time minus the time its child spans cover
  };
  std::vector<LayerTime> layer_times() const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op while the log is disabled.
class Span {
 public:
  Span(const char* layer, const char* name)
      : index_(SpanLog::get().enabled ? SpanLog::get().open(layer, name) : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::get().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---- checks ----------------------------------------------------------------

/// Output checks: every check is one attempted item; a failed check is
/// reported on stderr and counted.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  bool expect(bool ok, const std::string& what);
  /// |got - want| <= tol.
  bool near(double got, double want, double tol, const std::string& what);
};

// ---- workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  int threads = 1;  // worker threads a workload may use (= nproc)
};

/// One timed unit of a workload.
struct Iteration {
  double wall_s = 0;
  double cpu_s = 0;
  std::int64_t events = 0;  // engine events the iteration's runs dispatched
  int runs = 0;             // simulation runs executed
  int attempted = 0;        // operations (runs or requests) attempted
  int failed = 0;           // failed runs, rejected or errored requests
  std::vector<double> op_ms;  // latency of each operation
};

/// A run the workload's first iteration performed, for the per-layer work
/// counts of the traced run.
struct RunJob {
  pcd::apps::Workload workload;
  pcd::core::RunConfig config;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed phase needs; may be called several times
  /// (each call replaces the previous state; teardown() runs between calls
  /// that hold resources).  Timed as setup_s.
  virtual void setup() = 0;
  /// Iterations of a fixed-work timed phase for a `seconds` run, or 0 to
  /// iterate for `seconds` of wall time.
  virtual int fixed_iterations(double /*seconds*/) const { return 0; }
  /// Executes iteration `i` and fills `it` (wall/cpu are filled by the
  /// caller).
  virtual void iterate(int i, Iteration& it) = 0;
  /// Checks every output recorded by the timed phase.
  virtual void verify(Checks& checks) = 0;
  /// Events of iteration `i` when iterate() could not observe them
  /// (service_replay learns them from its verification runs).
  virtual std::int64_t late_events(int /*i*/) const { return -1; }
  /// The simulation runs of the first iteration.
  virtual std::vector<RunJob> first_iteration_jobs() const = 0;
  /// Latencies of the timed phase's requests that hit and that missed the
  /// cache; false for a workload that sends no requests.
  virtual bool request_latencies(std::vector<double>& /*hit_ms*/,
                                 std::vector<double>& /*miss_ms*/) const {
    return false;
  }
  /// Releases resources (threads, sockets, temporary directories).
  virtual void teardown() {}
};

std::unique_ptr<Workload> make_paper_sweep(const Options& o);
std::unique_ptr<Workload> make_service_replay(const Options& o);

// ---- Table 2 ----------------------------------------------------------------

/// The paper's Table 2 matrix: 8 NPB codes x {CPUSPEED v1.2.1 ("auto"), 600,
/// 800, 1000, 1200, 1400 MHz} at scale 1.0, one trial per cell.
pcd::campaign::ExperimentSpec table2_spec(std::uint64_t seed);

/// Raw (energy_j, delay_s) per (workload label, setting label).
using Table2Raw = std::map<std::pair<std::string, std::string>, pcd::core::EnergyDelay>;

/// Simulated Table 2 against the published one.  Cells are normalized to
/// the 1400 MHz column; errors are |simulated - paper| over every published
/// non-baseline value (SP energy is unpublished).
struct Table2Fit {
  std::vector<std::string> names;  // "<CODE>.<setting>.delay|energy"
  std::vector<double> values;      // normalized simulated value per name
  double max_err = 0;
  double mean_err = 0;
  std::string worst;
};
Table2Fit table2_fit(const Table2Raw& raw);

// ---- campaign service ------------------------------------------------------

/// A live CampaignService (persistent ResultCache without fsync, in a fresh
/// temporary directory) behind an AF_UNIX SocketServer, plus one connection
/// per client.  Used by service_replay and by the service probes.
class ServiceHarness {
 public:
  /// `work_dir` holds the temporary directory; the service runs one
  /// worker per client.
  ServiceHarness(const std::string& work_dir, int clients);
  ~ServiceHarness();
  ServiceHarness(const ServiceHarness&) = delete;
  ServiceHarness& operator=(const ServiceHarness&) = delete;

  /// Sends one request line on `client`'s connection and returns the raw
  /// response line ("" when the connection failed).  Each client's
  /// connection may be used by one thread at a time.
  std::string call(int client, const std::string& line);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string dir_;
};

/// Fresh request `id` of service_replay's traffic at `seed`: all eight NPB
/// codes x the six Table 2 settings (48 cells) at a small scale.
pcd::service::SpecRequest replay_request(std::uint64_t seed, std::size_t id);

/// Ordered metric list of one result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The per-layer probes of the traced run (perfbench/layers.cpp); `w` is
/// the traced workload after its timed phase.
void layer_probes(const Options& o, const Workload& w, Metrics& out, Checks& checks);

/// Recursively removes a directory tree (benchmark temporary state).
void remove_tree(const std::string& path);
/// Creates a fresh unique directory under `parent` (created if missing).
std::string make_temp_dir(const std::string& parent, const std::string& prefix);

}  // namespace perfbench
