// mc-explore: the bounded model checker's exhaustive exploration.  Replay
// and building one Machine per schedule dominate it, so only DPOR or a
// cheaper replay moves it.  Exploration has no random inputs: the seed only
// permutes the order in which the fixed scenarios run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "elision/elided_lock.h"
#include "elision/registry.h"
#include "mc/workloads.h"
#include "runtime/machine.h"

namespace perfbench {

namespace {

namespace elision = sihle::elision;
namespace mc = sihle::mc;
using sihle::htm::SlrHazard;
using sihle::stats::FindingKind;

struct Scenario {
  const char* name;
  const char* spec;  // registry policy ("slr" for the hazard scenarios)
  int ops0 = 1;
  int ops1 = 1;
  SlrHazard hazard = SlrHazard::kNone;  // kNone: explore_scheme
  elision::SubscribeKind subscribe = elision::SubscribeKind::kLazy;
};

// hle x TTAS at 2x1 is the ROADMAP's reference case; hle-scm x TTAS at 1x1
// is the largest hle-scm case that fits a pass (2x1 takes ~30 s).  The lazy
// SLR hazards must keep yielding counterexamples; commit-checked
// subscription must keep closing them.
const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kAll = {
      {"hle-ttas-2x1", "hle", 2, 1},
      {"hle-scm-ttas-1x1", "hle-scm", 1, 1},
      {"slr-wildstore-lazy", "slr", 1, 1, SlrHazard::kWildStore,
       elision::SubscribeKind::kLazy},
      {"slr-wildstore-checked", "slr", 1, 1, SlrHazard::kWildStore,
       elision::SubscribeKind::kCommitChecked},
      {"slr-earlycommit-lazy", "slr", 1, 1, SlrHazard::kEarlyCommit,
       elision::SubscribeKind::kLazy},
      {"slr-earlycommit-checked", "slr", 1, 1, SlrHazard::kEarlyCommit,
       elision::SubscribeKind::kCommitChecked},
  };
  return kAll;
}

// Builds the machine one schedule of a scenario starts from (the mc layer's
// per-schedule configuration: lockset checker on, non-fatal), its elided
// lock and the two shared words — the set-up the explorer repeats before
// every schedule.
void build_schedule_machine(const elision::Policy& p) {
  sihle::runtime::Machine::Config cfg;
  cfg.seed = 1;
  cfg.analysis.enabled = true;
  cfg.analysis.fatal = false;
  sihle::runtime::Machine m(cfg);
  elision::ElidedLock lock(m, sihle::locks::LockKind::kTtas, p.conflict.aux);
  sihle::runtime::LineHandle x(m);
  sihle::runtime::LineHandle y(m);
}

// Builds per scenario per pass, so set-up is long enough to time steadily.
constexpr int kBuildsPerScenario = 32;

class McWorkload final : public Workload {
 public:
  explicit McWorkload(std::uint64_t seed) {
    for (std::size_t i = 0; i < scenarios().size(); ++i) order_.push_back(i);
    sihle::sim::Rng gen(seed ^ 0x3C3CULL);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[gen.below(i)]);
    }
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = 0x3C;
    for (const std::size_t i : order_) h = mix(h, i);
    return h;
  }

  PassResult run_pass(Tracer& tr, bool /*traced*/) override {
    PassResult out;
    for (const std::size_t i : order_) run_scenario(scenarios()[i], tr, out);
    return out;
  }

 private:
  static void run_scenario(const Scenario& s, Tracer& tr, PassResult& out) {
    tr.open("bench.sim", Stage::kOther);

    tr.open("elision.parse_policy", Stage::kSetup);
    const auto policy = elision::parse_policy(s.spec);
    tr.close();

    tr.open("runtime.build", Stage::kSetup);
    for (int b = 0; b < kBuildsPerScenario; ++b) build_schedule_machine(*policy);
    out.build_s += tr.close();

    mc::ScenarioOptions opts;
    opts.ops0 = s.ops0;
    opts.ops1 = s.ops1;
    mc::McScenarioResult r;
    if (s.hazard == SlrHazard::kNone) {
      tr.open("mc.explore_scheme", Stage::kRun);
      r = mc::explore_scheme(s.spec, sihle::locks::LockKind::kTtas, opts);
    } else {
      tr.open("mc.explore_slr_hazard", Stage::kRun);
      r = mc::explore_slr_hazard(s.hazard, s.subscribe, opts);
    }
    out.sim_run_s.push_back(tr.close());

    tr.open("bench.check", Stage::kOther);
    const std::uint64_t torn =
        r.findings.count(FindingKind::kMcNonSerializableCommit);
    const bool lazy_hazard = s.hazard != SlrHazard::kNone &&
                             s.subscribe == elision::SubscribeKind::kLazy;
    // Verdicts only: schedule and transition counts stay out of the
    // fingerprint so that a reduction which explores fewer schedules keeps
    // the same golden (they are reported as exact per-layer counts instead).
    std::uint64_t kinds = 0;
    for (std::size_t f = 0; f < sihle::stats::kNumFindingKinds; ++f) {
      if (r.findings.count(static_cast<FindingKind>(f)) != 0) kinds |= 1ULL << f;
    }
    SimOutcome sim_out;
    sim_out.name = std::string("mc-explore/") + s.name;
    sim_out.fingerprint =
        mix(mix(mix(mix(0x3CF, r.stats.complete ? 1 : 0), r.clean() ? 1 : 0),
                kinds),
            r.counterexamples.size());
    char why[160] = "";
    if (!r.stats.complete) {
      std::snprintf(why, sizeof why, "exploration incomplete");
    } else if (s.hazard == SlrHazard::kNone && (!r.clean() || r.bad_schedules != 0)) {
      std::snprintf(why, sizeof why, "violation under %s", s.spec);
    } else if (lazy_hazard && (torn == 0 || r.counterexamples.empty())) {
      std::snprintf(why, sizeof why, "lazy hazard lost its counterexamples");
    } else if (!lazy_hazard && torn != 0) {
      std::snprintf(why, sizeof why, "non-serializable commit found");
    }
    sim_out.broken = why;
    out.sims.push_back(std::move(sim_out));

    Counts& k = out.counts;
    k.schedules += static_cast<double>(r.stats.runs);
    k.transitions += static_cast<double>(r.stats.transitions);
    k.sleep_pruned += static_cast<double>(r.stats.sleep_pruned);
    k.singleton_commits += static_cast<double>(r.stats.singleton_commits);
    k.complete = k.complete && r.stats.complete;
    k.counterexamples += static_cast<double>(r.counterexamples.size());
    tr.close();

    tr.close();  // bench.sim
  }

  std::vector<std::size_t> order_;
};

}  // namespace

std::unique_ptr<Workload> make_mc_workload(std::uint64_t seed) {
  return std::make_unique<McWorkload>(seed);
}

}  // namespace perfbench
