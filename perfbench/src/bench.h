// Shared vocabulary of the host-cost benchmark (perfbench/README.md).
//
// A workload is a fixed amount of simulated work built from the seed once,
// before any timing.  One *pass* runs all of it; the driver repeats passes
// for the requested number of host seconds and reports the fastest, so two
// commits always compare the same work.  Every call into a simulator layer
// sits inside a Tracer span: the span's duration feeds the pass's set-up or
// run time, and in a traced pass the span itself is kept so per-layer self
// times can be attributed afterwards.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "htm/abort.h"
#include "sim/rng.h"
#include "stats/op_stats.h"

namespace perfbench {

// Host seconds on a monotonic clock (clock.cpp is the only clock reader).
double now_s();

enum class Stage : std::uint8_t { kSetup, kRun, kOther };

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "runtime.Machine::run"
  int parent = -1;   // index into the pass's span list, -1 for a root
  Stage stage = Stage::kOther;
  double start = 0.0;
  double end = 0.0;
};

// Stack of open spans.  Durations are always measured; spans are kept only
// when `keep` is set (the traced run).
class Tracer {
 public:
  explicit Tracer(bool keep) : keep_(keep) {}

  void open(const char* name, Stage stage);
  // Closes the innermost span; returns its duration and adds it to the
  // stage it was opened with.
  double close();
  // Records an already-finished child of the innermost open span whose
  // duration the callee measured itself (ends now, stage as given) and
  // moves that time out of the parent's stage.
  void measured_child(const char* name, Stage stage, double seconds);

  double stage_s(Stage s) const { return stage_s_[static_cast<int>(s)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    int span;  // index into spans_ or -1 when not kept
    Stage stage;
    double start;
  };
  bool keep_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  double stage_s_[3] = {0.0, 0.0, 0.0};
};

// One simulation's verdict: the fingerprint of its virtual outputs and the
// first invariant it broke, if any.
struct SimOutcome {
  std::string name;
  std::uint64_t fingerprint = 0;
  std::string broken;  // empty when every invariant held
};

// Exact per-layer counts and virtual-time totals of one pass, summed over
// its simulations.  They are a function of the seed alone, so every pass
// yields the same values; a layer a workload does not reach stays 0.
struct Counts {
  // sim
  double events = 0;
  double makespan_cycles = 0;
  double thread_cycles = 0;  // sum of every simulated thread's final clock
  double frames_served = 0;
  double frames_recycled = 0;
  // htm + elision: the policies' own OpStats, summed
  sihle::stats::OpStats ops;
  double dooms = 0;
  double body_calls = 0;
  // ds
  double final_size = 0;
  bool valid = true;
  // runtime
  double epochs = 0;
  double remote_ops = 0;
  // service
  double offered = 0;
  double admitted = 0;
  double dropped = 0;
  double served = 0;
  double max_queue_depth = 0;
  double qdelay_p99_cycles = 0;
  double service_p99_cycles = 0;
  double sojourn_p99_cycles = 0;
  double lemming_shards = 0;
  // mc
  double schedules = 0;
  double transitions = 0;
  double sleep_pruned = 0;
  double singleton_commits = 0;
  bool complete = true;
  double counterexamples = 0;
  // Virtual cycles spent in aborted attempts, by abort cause (traced
  // passes of the tree workloads only).
  std::array<double, sihle::htm::kNumAbortCauses> aborted_cycles{};

  // The work behind events_per_s: simulation events, or replayed
  // transitions for the model checker (a workload has one or the other).
  double work_events() const { return events + transitions; }
};

// Everything one pass produced besides its set-up and run times.
struct PassResult {
  std::vector<SimOutcome> sims;
  std::vector<double> sim_run_s;  // host run time of each simulation
  Counts counts;
  // Host time of building the simulated machines: Machine (tree, mc) or
  // DomainSet (service, timed in traced passes only).
  double build_s = 0;
  // Host time of service::build_request_streams (service, traced passes).
  double stream_build_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Digest of the inputs generated from the seed.
  virtual std::uint64_t input_digest() const = 0;
  // Runs the fixed work once.  In a `traced` pass the workload also
  // attaches stats::EventTrace where it can, to attribute virtual cycles to
  // aborted attempts, and times the layer calls it cannot wrap in spans.
  virtual PassResult run_pass(Tracer& tracer, bool traced) = 0;
};

std::unique_ptr<Workload> make_tree_workload(const std::string& name,
                                             std::uint64_t seed);
std::unique_ptr<Workload> make_service_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_mc_workload(std::uint64_t seed);

// Order-sensitive 64-bit hash step used by every fingerprint and digest.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9E3779B97F4A7C15ULL);
  return sihle::sim::splitmix64(s);
}

}  // namespace perfbench
