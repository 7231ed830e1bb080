// tree-contended and tree-commit: closed-loop red-black-tree workloads on
// one runtime::Machine per (policy, lock) cell, 8 simulated threads with
// zero think time, each thread running a fixed list of operations generated
// from the seed.  The critical-section body factory is the benchmark's own,
// so it counts body calls (elision.body_calls) from outside the policy.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "ds/rbtree.h"
#include "elision/elided_lock.h"
#include "elision/registry.h"
#include "harness/rbtree_workload.h"
#include "runtime/ctx.h"
#include "service/dispatcher.h"
#include "stats/event_ring.h"

namespace perfbench {

namespace {

using sihle::runtime::Ctx;
using sihle::runtime::Machine;
using sihle::service::OpKind;
namespace ds = sihle::ds;
namespace elision = sihle::elision;
namespace sim = sihle::sim;
namespace stats = sihle::stats;

struct Cell {
  const char* policy;  // registry spec
  const char* lock;    // registry lock key
};

struct TreeShape {
  std::size_t size;  // prefilled keys, drawn from [0, 2 * size)
  int threads;
  int update_pct;  // mutating share, split evenly insert/erase
  std::size_t ops_per_thread;
  std::vector<Cell> cells;
};

// tree-contended: fig9's 8-thread column, where aborts storm and lemming
// happens.  tree-commit: a tree too large for two random operations to
// collide, so nearly every attempt commits.
TreeShape shape_of(const std::string& name) {
  if (name == "tree-contended") {
    return {128, 8, 20, 1500,
            {{"hle", "ttas"}, {"hle", "mcs"}, {"hle-scm", "ttas"},
             {"hle-scm", "mcs"}, {"slr", "ttas"}, {"slr", "mcs"}}};
  }
  if (name == "tree-commit") {
    return {8192, 8, 10, 2500, {{"hle-scm", "ttas"}, {"slr", "ttas"}}};
  }
  throw std::invalid_argument("unknown tree workload: " + name);
}

struct Op {
  std::int64_t key;
  OpKind kind;
};

struct ThreadArgs {
  const std::vector<Op>* ops = nullptr;
  elision::Policy policy;
  elision::ElidedLock* lock = nullptr;
  ds::RBTree* tree = nullptr;
  stats::OpStats st;
  std::uint64_t body_calls = 0;
  std::uint64_t inserted = 0;  // inserts that added a key
  std::uint64_t erased = 0;    // erases that removed one
  bool changed = false;        // result of the latest attempt's body
};

// One critical-section body.  An aborted attempt unwinds before `changed`
// is written, so after run_cs returns it holds the completed attempt's
// result.
sim::Task<void> tree_call(Ctx& c, ds::RBTree& t, Op op, bool& changed) {
  bool r = false;
  if (op.kind == OpKind::kInsert) {
    r = co_await t.insert(c, op.key);
  } else if (op.kind == OpKind::kErase) {
    r = co_await t.erase(c, op.key);
  } else {
    r = co_await t.contains(c, op.key);
  }
  changed = r;
}

sim::Task<void> one_op(Ctx& c, ThreadArgs& a, std::uint64_t i) {
  const Op op = (*a.ops)[i];
  co_await elision::run_cs(
      a.policy, c, *a.lock,
      [&a, op](Ctx& cc) {
        ++a.body_calls;
        return tree_call(cc, *a.tree, op, a.changed);
      },
      a.st);
  if (op.kind == OpKind::kInsert && a.changed) ++a.inserted;
  if (op.kind == OpKind::kErase && a.changed) ++a.erased;
}

sim::Task<void> worker(Ctx& c, ThreadArgs& a) {
  co_await sihle::service::closed_session(
      c, [&a](Ctx&, std::uint64_t i) { return i < a.ops->size(); },
      [&a](Ctx& cc, std::uint64_t i) { return one_op(cc, a, i); });
}

// Virtual cycles between each attempt's begin and its abort, by cause.
void add_aborted_cycles(const stats::EventTrace& tr, Counts& k) {
  for (std::uint32_t t = 0; t < tr.threads(); ++t) {
    sim::Cycles begin = 0;
    tr.ring(t).for_each([&](const stats::Event& e) {
      if (e.kind == stats::EventKind::kTxBegin) begin = e.at;
      if (e.kind == stats::EventKind::kTxAbort) {
        k.aborted_cycles[static_cast<std::size_t>(e.cause)] +=
            static_cast<double>(e.at - begin);
      }
    });
  }
}

class TreeWorkload final : public Workload {
 public:
  TreeWorkload(const std::string& name, std::uint64_t seed)
      : name_(name), shape_(shape_of(name)) {
    sim::Rng gen(seed ^ 0x7EE5EEDULL);
    const std::uint64_t domain = 2 * shape_.size;
    std::vector<bool> taken(domain, false);
    while (prefill_.size() < shape_.size) {
      const std::uint64_t k = gen.below(domain);
      if (taken[k]) continue;
      taken[k] = true;
      prefill_.push_back(static_cast<std::int64_t>(k));
    }
    ops_.resize(static_cast<std::size_t>(shape_.threads));
    for (auto& list : ops_) {
      list.reserve(shape_.ops_per_thread);
      for (std::size_t i = 0; i < shape_.ops_per_thread; ++i) {
        const auto key = static_cast<std::int64_t>(gen.below(domain));
        const int dice = static_cast<int>(gen.below(100));
        const OpKind kind = dice < shape_.update_pct / 2 ? OpKind::kInsert
                            : dice < shape_.update_pct   ? OpKind::kErase
                                                         : OpKind::kLookup;
        list.push_back({key, kind});
      }
    }
    machine_seed_ = gen.next();
  }

  std::uint64_t input_digest() const override {
    std::uint64_t h = mix(0x7EE, machine_seed_);
    for (const std::int64_t k : prefill_) h = mix(h, static_cast<std::uint64_t>(k));
    for (const auto& list : ops_) {
      for (const Op& op : list) {
        h = mix(h, (static_cast<std::uint64_t>(op.key) << 2) |
                       static_cast<std::uint64_t>(op.kind));
      }
    }
    return h;
  }

  PassResult run_pass(Tracer& tr, bool traced) override {
    PassResult out;
    for (const Cell& cell : shape_.cells) run_cell(cell, tr, traced, out);
    return out;
  }

 private:
  void run_cell(const Cell& cell, Tracer& tr, bool traced, PassResult& out) {
    tr.open("bench.sim", Stage::kOther);

    tr.open("elision.parse_policy", Stage::kSetup);
    std::string error;
    const auto policy = elision::parse_policy(cell.policy, &error);
    const auto kind = elision::parse_lock_kind(cell.lock, &error);
    tr.close();
    if (!policy || !kind) throw std::invalid_argument(error);

    tr.open("runtime.build", Stage::kSetup);
    Machine::Config mc;
    mc.seed = machine_seed_;
    mc.htm.spurious_abort_per_access = sihle::harness::kDefaultSpurious;
    mc.htm.persistent_abort_per_tx = sihle::harness::kDefaultPersistent;
    mc.analysis.enabled = false;
    auto m = std::make_unique<Machine>(mc);
    auto lock = std::make_unique<elision::ElidedLock>(*m, *kind,
                                                      policy->conflict.aux);
    auto tree = std::make_unique<ds::RBTree>(*m);
    out.build_s += tr.close();

    tr.open("ds.prefill", Stage::kSetup);
    for (const std::int64_t k : prefill_) tree->debug_insert(k);
    tr.close();

    // Enough ring capacity that no event of the run is dropped.
    stats::EventTrace events(4 * shape_.ops_per_thread + 256);
    if (traced) m->set_event_trace(&events);

    tr.open("runtime.spawn", Stage::kSetup);
    std::vector<ThreadArgs> args(ops_.size());
    for (std::size_t t = 0; t < ops_.size(); ++t) {
      ThreadArgs& a = args[t];
      a.ops = &ops_[t];
      a.policy = *policy;
      a.lock = lock.get();
      a.tree = tree.get();
      m->spawn([&a](Ctx& c) { return worker(c, a); });
    }
    tr.close();

    tr.open("runtime.Machine::run", Stage::kRun);
    m->run();
    out.sim_run_s.push_back(tr.close());

    tr.open("bench.check", Stage::kOther);
    stats::OpStats st;
    std::uint64_t body_calls = 0;
    std::uint64_t inserted = 0;
    std::uint64_t erased = 0;
    for (const ThreadArgs& a : args) {
      st += a.st;
      body_calls += a.body_calls;
      inserted += a.inserted;
      erased += a.erased;
    }
    const sim::Cycles makespan = m->exec().max_clock();
    std::uint64_t events_n = 0;
    for (std::uint32_t t = 0; t < m->exec().thread_count(); ++t) {
      events_n += m->exec().thread(t).events;
      out.counts.thread_cycles += static_cast<double>(m->exec().thread(t).clock);
    }
    const std::vector<ds::RBTree::Key> keys = tree->debug_keys();
    const bool valid = tree->debug_validate();

    SimOutcome sim_out;
    sim_out.name = name_ + "/" + cell.policy + "/" + cell.lock;
    std::uint64_t h = mix(0x7EEF, st.spec_commits);
    for (const std::uint64_t v :
         {st.aborts, st.nonspec, st.arrivals, st.arrivals_lock_held,
          st.aux_acquisitions, static_cast<std::uint64_t>(makespan),
          body_calls, inserted, erased}) {
      h = mix(h, v);
    }
    for (const std::uint64_t v : st.abort_causes) h = mix(h, v);
    for (const auto k : keys) h = mix(h, static_cast<std::uint64_t>(k));
    sim_out.fingerprint = h;

    const std::uint64_t issued = ops_.size() * shape_.ops_per_thread;
    char why[160] = "";
    if (!valid) {
      std::snprintf(why, sizeof why, "red-black invariants broken");
    } else if (st.ops() != issued || st.arrivals != issued) {
      std::snprintf(why, sizeof why, "S+N=%llu arrivals=%llu, issued %llu",
                    static_cast<unsigned long long>(st.ops()),
                    static_cast<unsigned long long>(st.arrivals),
                    static_cast<unsigned long long>(issued));
    } else if (keys.size() != prefill_.size() + inserted - erased) {
      std::snprintf(why, sizeof why, "final size %zu != %zu + %llu - %llu",
                    keys.size(), prefill_.size(),
                    static_cast<unsigned long long>(inserted),
                    static_cast<unsigned long long>(erased));
    } else if (body_calls < st.ops() || body_calls > st.ops() + st.aborts) {
      std::snprintf(why, sizeof why, "body calls %llu outside [S+N, S+A+N]",
                    static_cast<unsigned long long>(body_calls));
    } else if (traced && events.total_dropped() != 0) {
      std::snprintf(why, sizeof why, "event trace dropped events");
    }
    sim_out.broken = why;
    out.sims.push_back(std::move(sim_out));

    Counts& k = out.counts;
    k.events += static_cast<double>(events_n);
    k.makespan_cycles += static_cast<double>(makespan);
    k.frames_served += static_cast<double>(m->frame_pool().served());
    k.frames_recycled += static_cast<double>(m->frame_pool().recycled());
    k.ops += st;
    k.dooms += static_cast<double>(m->htm().total_dooms());
    k.body_calls += static_cast<double>(body_calls);
    k.final_size += static_cast<double>(keys.size());
    k.valid = k.valid && valid;
    if (traced) add_aborted_cycles(events, k);
    tr.close();

    tr.open("runtime.teardown", Stage::kOther);
    args.clear();
    tree.reset();
    lock.reset();
    m.reset();
    tr.close();

    tr.close();  // bench.sim
  }

  std::string name_;
  TreeShape shape_;
  std::uint64_t machine_seed_ = 0;
  std::vector<std::int64_t> prefill_;
  std::vector<std::vector<Op>> ops_;  // one list per simulated thread
};

}  // namespace

std::unique_ptr<Workload> make_tree_workload(const std::string& name,
                                             std::uint64_t seed) {
  return std::make_unique<TreeWorkload>(name, seed);
}

}  // namespace perfbench
