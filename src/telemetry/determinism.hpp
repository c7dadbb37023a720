// Determinism observability: run digests, focused capture, and divergence
// localization (DESIGN.md §3.12).
//
// A run's externally visible decision sequence is folded into four rolling
// digest streams — event-dispatch order, RNG draws, power-integration
// steps, MPI message matches — checkpointed every K events into a
// RunDigest.  Two runs of the same RunConfig must produce byte-identical
// digests; when they do not, diff() names the first diverging stream and
// the checkpoint interval containing the first divergence, and localize()
// re-runs the pair with per-event capture focused on that interval to name
// the first diverging event with its full causal chain.
//
// The collector is RAII: constructing one installs the engine hooks and the
// thread-local RNG sink, destroying it restores both, so a digest-off run
// executes exactly the pre-observability instruction stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/provenance.hpp"
#include "telemetry/flight_recorder.hpp"

namespace pcd::telemetry {

/// Run-level determinism switches (RunConfig::determinism).
struct DeterminismOptions {
  /// Collect the four digest streams + checkpoints (the cheap tier: one
  /// hash fold per event dispatch / RNG draw / power step / MPI match).
  bool digest = false;

  /// Events per digest checkpoint; rounded up to a power of two.
  std::uint64_t checkpoint_every = 4096;

  /// Keep a ring of the last N provenance records and attach a JSON dump to
  /// the result on run failure (and to watchdog-fallback fault records).
  bool flight_recorder = false;
  std::size_t recorder_entries = 1024;

  /// Focused capture: retain full per-event records for dispatch indices i
  /// with capture_begin < i <= capture_end (1-based dispatch ordinals, so
  /// the window slots directly between two digest checkpoints), plus the
  /// causal-chain table needed to walk any captured event back to the run's
  /// root.  The debug tier — a virtual call per event — used by the
  /// divergence localizer.
  std::uint64_t capture_begin = 0;
  std::uint64_t capture_end = 0;

  /// Debug knob: swap the engine's allocation order of sequence numbers
  /// `perturb_seq` and `perturb_seq + 1` — the minimal scheduling-order
  /// perturbation (two same-time events dispatch in swapped order).  Used
  /// to exercise and test divergence localization; 0 = off.
  std::uint64_t perturb_seq = 0;

  bool capture() const { return capture_end > capture_begin; }
  bool any() const { return digest || flight_recorder || capture() || perturb_seq != 0; }
};

/// Snapshot of all four streams at one checkpoint boundary.
struct DigestCheckpoint {
  std::uint64_t events = 0;  // dispatch count at the boundary
  std::uint64_t hash[4] = {0, 0, 0, 0};
  std::uint64_t count[4] = {0, 0, 0, 0};
};

/// The per-run digest: final stream states plus the checkpoint trail.
struct RunDigest {
  enum Stream { kEvents = 0, kRng = 1, kPower = 2, kMpi = 3 };
  static constexpr int kStreams = 4;
  static const char* stream_name(int s);

  sim::DigestStream streams[kStreams];
  std::uint64_t checkpoint_every = 4096;
  std::vector<DigestCheckpoint> checkpoints;

  /// One word summarizing the whole run: fold of every stream's final
  /// (hash, count).  Equal digests have equal roots.
  std::uint64_t root() const;

  /// Line-based text serialization (stable across versions within v1);
  /// parse() round-trips it.  Used by tools/pcd_diff digest files.
  std::string to_text() const;
  static std::optional<RunDigest> parse(const std::string& text);
};

/// Where two digests first part ways.
struct DigestDiff {
  bool diverged = false;
  bool comparable = true;  // false: different checkpoint_every / stream sets
  int stream = -1;         // first diverging stream (RunDigest::Stream)
  /// Dispatch-index interval containing the first divergence: the last
  /// checkpoint where all streams still agreed, and the first where one
  /// differed (UINT64_MAX = past the last common checkpoint).
  std::uint64_t interval_begin = 0;
  std::uint64_t interval_end = ~0ULL;

  std::string summary() const;
};

DigestDiff diff(const RunDigest& a, const RunDigest& b);

/// One event retained by focused capture (site copied out of the static
/// label so captures outlive the engine).
struct CapturedEvent {
  std::uint64_t index = 0;
  std::uint64_t seq = 0;
  std::uint64_t parent = 0;
  std::string site;
  sim::SimTime t = 0;
  std::uint64_t rng_draws = 0;

  bool operator==(const CapturedEvent&) const = default;
};

/// Everything one instrumented run hands back: the digest, the focused
/// capture window, the causal-chain table (seq -> record, populated up to
/// capture_end), and the flight recording if one was dumped.
struct RunCapture {
  RunDigest digest;
  std::vector<CapturedEvent> events;
  std::unordered_map<std::uint64_t, CapturedEvent> chain;
  std::string flight_recording;
};

/// RAII engine instrumentation.  Construct after the Engine and before any
/// scheduling that should be covered; destroy (or detach()) before the
/// Engine dies.
class DeterminismCollector final : public sim::EventObserver {
 public:
  DeterminismCollector(sim::Engine& engine, const DeterminismOptions& opts);
  ~DeterminismCollector() override { detach(); }

  DeterminismCollector(const DeterminismCollector&) = delete;
  DeterminismCollector& operator=(const DeterminismCollector&) = delete;

  /// Uninstalls the engine hooks and the RNG sink (idempotent).
  void detach();

  const RunDigest& digest() const { return digest_; }
  /// Streams for subsystem wiring (power integrator, MPI match points).
  sim::DigestStream* power_stream() { return &digest_.streams[RunDigest::kPower]; }
  sim::DigestStream* mpi_stream() { return &digest_.streams[RunDigest::kMpi]; }
  FlightRecorder* recorder() { return recorder_.get(); }

  /// Moves the collected state out (digest, capture, chain); the collector
  /// keeps running but starts from what is left (call at run end).
  RunCapture take_capture();

  // sim::EventObserver
  void on_event(const sim::EventProvenance& p) override;
  void on_checkpoint(std::uint64_t events_dispatched) override;

 private:
  sim::Engine& engine_;
  DeterminismOptions opts_;
  RunDigest digest_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::vector<CapturedEvent> captured_;
  std::unordered_map<std::uint64_t, CapturedEvent> chain_;
  sim::DigestStream* prev_rng_digest_ = nullptr;
  bool attached_ = false;
};

/// Executes one instrumented run under the given options and returns its
/// capture.  Implementations wrap core::run_workload (or any other driver)
/// — the localizer stays independent of the runner layer.
using InstrumentedRun = std::function<RunCapture(const DeterminismOptions&)>;

/// Divergence localization verdict: the digest diff, plus (after the
/// focused re-run) the first diverging event from each side with its causal
/// chain, rendered into `report`.
struct LocalizeResult {
  bool diverged = false;
  DigestDiff digests;
  std::optional<CapturedEvent> first_a, first_b;
  std::vector<CapturedEvent> chain_a, chain_b;  // root first, event last
  std::string report;
};

/// Runs a and b with digests, diffs, and — on divergence — re-runs both
/// with capture focused on the first diverging checkpoint interval to name
/// the first diverging event and walk its causal chain.
LocalizeResult localize(const InstrumentedRun& run_a, const InstrumentedRun& run_b,
                        std::uint64_t checkpoint_every = 4096);

/// Renders a capture's causal chain for `seq` (root first).
std::vector<CapturedEvent> causal_chain(const RunCapture& capture, std::uint64_t seq);

}  // namespace pcd::telemetry
