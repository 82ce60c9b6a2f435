// hdbench: the benchmark program behind `python3 hdbench/run.py`.
//
// The binary runs one workload against the real libraries and writes the
// raw measurements (per-unit setup and wall times, per-round or per-pass
// latency samples, case and finding counts, and in a traced run the
// per-layer table) as one JSON object.  run.py turns the samples into the
// reported statistics and runs the correctness gates that need the built
// `hdiff` CLI.  All timing happens here, around calls into each layer's
// public functions; nothing inside src/ is instrumented for the benchmark.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "impls/model.h"
#include "obs/metrics.h"

namespace hdbench {

using Fleet = std::vector<std::unique_ptr<hdiff::impls::HttpImplementation>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Units of fixed work: pipeline passes (oneshot) or whole campaigns.
  std::size_t units = 1;
  bool trace = false;
  std::size_t jobs = 4;
  /// Mutation rounds per campaign (round 0, the bootstrap pass, is extra).
  std::size_t rounds = 10;
  std::string work_dir;   ///< state dirs, exports and traces go here
  std::string hdiff_bin;  ///< the built CLI; serve spawns it as workers
};

/// One unit of fixed work and what it produced.
struct Unit {
  std::uint64_t setup_ns = 0;  ///< before the first case could run
  std::uint64_t wall_ns = 0;   ///< the work itself, setup excluded
  /// Latency samples: one per committed round (campaign workloads) or the
  /// single pass (oneshot).
  std::vector<std::uint64_t> round_ns;
  std::size_t cases = 0;     ///< planned cases executed (no minimizer replays)
  std::size_t findings = 0;  ///< novel findings filed (oneshot: violations +
                             ///< affected-pair findings)
  std::size_t failed = 0;    ///< quarantined cases (+ worker deaths, serve)
  std::string dir;           ///< state dir left for run.py's gates
  bool traced = false;
  /// Traced campaign units, one per round: round wall, then the plan,
  /// execute, integrate and commit calls inside it (run.py attributes the
  /// round to its phases).
  std::vector<std::array<std::uint64_t, 5>> phases_ns;
  /// Per-layer values of a traced unit, metric name -> value.  Histogram
  /// metrics arrive as `<name>@<percentile>` quantiles plus `<name>#count`,
  /// so run.py picks the tail percentile by its own sample-count rule.
  std::map<std::string, double> layers;
};

struct Result {
  std::vector<Unit> units;
  /// In-process correctness failures; any entry fails the run.
  std::vector<std::string> errors;
  std::string export_path;  ///< oneshot: export_json of the first pass
  std::string trace_path;   ///< traced runs: Chrome trace of the first unit
  /// Traced serve: one stitched trace per traced unit (run.py reads the
  /// serve:round and worker:execute_round spans out of them).
  std::vector<std::string> serve_traces;
  std::string reference_dir;  ///< streams: the same campaign at jobs 1
};

Result run_workload(const Options& options);

std::uint64_t now_ns();

/// Deterministic permutation of [0, n): seed 0 is the identity, any other
/// seed a Fisher-Yates shuffle driven by splitmix64 (portable across
/// standard libraries, unlike std::shuffle).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// HttpImplementation entry points, in `impls.<entry>.*` metric order.
inline constexpr std::array<const char*, 4> kEntries = {
    "parse_request", "forward_request", "respond", "relay_response"};

/// Call counts and busy nanoseconds per entry point, summed over a fleet.
struct CallTally {
  std::array<hdiff::obs::Counter, 4> calls;
  std::array<hdiff::obs::Counter, 4> ns;
};

/// Wraps every fleet member in a decorator that counts and times each model
/// call into `tally`.  The chain's verdict cache sits above the models, so
/// only cache misses reach the decorators.  `inner` must outlive the result.
Fleet counted_fleet(const Fleet& inner, CallTally& tally);

/// Stamps every checkpoint publish in a campaign state dir: StateStore
/// writes `campaign.state` by tmp + rename, so each rename onto that name
/// (store init, then one per committed round) is one inotify IN_MOVED_TO
/// event.  Lets an untraced run read per-round latency off the real
/// CampaignEngine::run / Supervisor::run without any tracing enabled.
class CommitWatcher {
 public:
  /// `dir` must exist.  Starts watching immediately.
  explicit CommitWatcher(const std::string& dir);
  ~CommitWatcher();
  CommitWatcher(const CommitWatcher&) = delete;
  CommitWatcher& operator=(const CommitWatcher&) = delete;

  /// Stops the watcher thread and returns the publish times (now_ns clock)
  /// in order.  Events already queued are drained first.
  std::vector<std::uint64_t> stop();

 private:
  void loop();
  void drain(std::vector<std::uint64_t>* out);

  int inotify_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::vector<std::uint64_t> stamps_;  ///< owned by the thread until joined
  std::thread thread_;
};

/// fsync and fdatasync calls this process has made so far.  The linker
/// routes the libraries' calls through counting wrappers (probes.cpp,
/// --wrap in CMakeLists.txt); every flush still reaches the device.
std::uint64_t fsync_calls();

/// Peak resident set size of this process or of its largest waited-for
/// child, in KiB.
std::size_t peak_rss_kib();

}  // namespace hdbench
