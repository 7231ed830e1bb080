// service-rw: figservice's open system.  A Poisson request stream near
// saturation with zipf 0.9 keys runs over 8 runtime::DomainSet shards with
// bounded queues; lookups elide in shared mode beside exclusive updates on
// one reader-writer lock per shard.  The whole run goes through
// harness::run_shard_workload, the one load stack, on one host thread.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.h"
#include "elision/registry.h"
#include "harness/shard_workload.h"
#include "runtime/domains.h"
#include "service/dispatcher.h"

namespace perfbench {

namespace {

namespace harness = sihle::harness;
namespace service = sihle::service;

harness::ShardWorkloadConfig config_for(std::uint64_t seed) {
  harness::ShardWorkloadConfig cfg;
  cfg.shards = 8;
  cfg.threads_per_shard = 2;
  cfg.keyspace = 4096;
  cfg.zipf_s = 0.9;
  cfg.update_pct = 20;
  cfg.seed = seed;
  cfg.domain_threads = 1;
  cfg.scheme = *sihle::elision::parse_policy("hle-retries");
  cfg.read_scheme = *sihle::elision::parse_policy("hle-retries:mode=shared");
  cfg.lock = sihle::locks::LockKind::kRw;
  cfg.per_shard_lemming = true;
  cfg.load.model = service::LoadModel::kPoisson;
  cfg.load.offered_ops_per_mcycle = 5000.0;
  cfg.load.requests = 24000;
  cfg.load.sessions = 512;
  cfg.load.queue_capacity = 512;
  return cfg;
}

// The stream run_shard_workload builds internally, from the same config.
service::StreamConfig stream_config(const harness::ShardWorkloadConfig& cfg) {
  service::StreamConfig sc;
  sc.load = cfg.load;
  sc.keyspace = cfg.keyspace;
  sc.zipf_s = cfg.zipf_s;
  sc.update_pct = cfg.update_pct;
  sc.queues = cfg.shards;
  sc.route = &harness::shard_of_key;
  sc.seed = cfg.seed;
  return sc;
}

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(std::uint64_t seed) : cfg_(config_for(seed)) {
    std::uint64_t h = mix(0x5E7, cfg_.seed);
    for (const auto& stream : service::build_request_streams(stream_config(cfg_))) {
      for (const service::Request& r : stream) {
        h = mix(h, r.arrival);
        h = mix(h, (r.key << 2) | static_cast<std::uint64_t>(r.op));
      }
    }
    digest_ = h;
  }

  std::uint64_t input_digest() const override { return digest_; }

  PassResult run_pass(Tracer& tr, bool traced) override {
    PassResult out;
    tr.open("bench.sim", Stage::kOther);

    // Everything run_shard_workload does outside DomainSet::run (build,
    // prefill, stream build, then fingerprint and teardown) is set-up.
    tr.open("harness.run_shard_workload", Stage::kSetup);
    const harness::ShardWorkloadResult r = harness::run_shard_workload(cfg_);
    tr.measured_child("runtime.DomainSet::run", Stage::kRun, r.wall_seconds);
    tr.close();
    out.sim_run_s.push_back(r.wall_seconds);

    tr.open("bench.check", Stage::kOther);
    const service::ServiceResult& o = r.open;
    SimOutcome sim_out;
    sim_out.name = "service-rw";
    std::uint64_t h = mix(0x5E7F, r.fingerprint);
    for (const std::uint64_t v :
         {r.stats.spec_commits, r.stats.aborts, r.stats.nonspec,
          r.stats.arrivals, r.stats.arrivals_lock_held,
          static_cast<std::uint64_t>(r.makespan), r.epochs, r.remote_ops,
          r.telemetry, o.queue.offered, o.queue.admitted, o.queue.dropped,
          o.queue.served, static_cast<std::uint64_t>(o.queue.max_depth),
          static_cast<std::uint64_t>(o.sojourn.percentile(0.99)),
          static_cast<std::uint64_t>(r.lemming_shards)}) {
      h = mix(h, v);
    }
    for (const std::uint64_t v : r.stats.abort_causes) h = mix(h, v);
    sim_out.fingerprint = h;

    char why[160] = "";
    if (!r.tables_valid) {
      std::snprintf(why, sizeof why, "hash-table invariants broken");
    } else if (o.queue.served + o.queue.dropped != o.queue.offered) {
      std::snprintf(why, sizeof why, "served %llu + dropped %llu != offered %llu",
                    static_cast<unsigned long long>(o.queue.served),
                    static_cast<unsigned long long>(o.queue.dropped),
                    static_cast<unsigned long long>(o.queue.offered));
    } else if (r.stats.ops() != o.queue.served) {
      std::snprintf(why, sizeof why, "S+N=%llu != served %llu",
                    static_cast<unsigned long long>(r.stats.ops()),
                    static_cast<unsigned long long>(o.queue.served));
    } else if (o.sojourn.count() != o.queue.served) {
      std::snprintf(why, sizeof why, "sojourn samples != served");
    }
    sim_out.broken = why;
    out.sims.push_back(std::move(sim_out));

    Counts& k = out.counts;
    k.events = static_cast<double>(r.total_events);
    k.makespan_cycles = static_cast<double>(r.makespan);
    k.ops = r.stats;
    k.valid = r.tables_valid;
    k.epochs = static_cast<double>(r.epochs);
    k.remote_ops = static_cast<double>(r.remote_ops);
    k.offered = static_cast<double>(o.queue.offered);
    k.admitted = static_cast<double>(o.queue.admitted);
    k.dropped = static_cast<double>(o.queue.dropped);
    k.served = static_cast<double>(o.queue.served);
    k.max_queue_depth = static_cast<double>(o.queue.max_depth);
    k.qdelay_p99_cycles = static_cast<double>(o.qdelay.percentile(0.99));
    k.service_p99_cycles = static_cast<double>(o.service.percentile(0.99));
    k.sojourn_p99_cycles = static_cast<double>(o.sojourn.percentile(0.99));
    k.lemming_shards = static_cast<double>(r.lemming_shards);
    tr.close();

    if (traced) {
      // The two layer calls run_shard_workload makes internally, timed on
      // their own with the same configuration.
      sihle::runtime::DomainSet::Config dc;
      dc.seed = cfg_.seed;
      dc.domains = cfg_.shards;
      dc.host_threads = cfg_.domain_threads;
      dc.epoch_cycles = cfg_.epoch_cycles;
      dc.machine.costs = cfg_.costs;
      dc.machine.htm.spurious_abort_per_access = cfg_.spurious;
      dc.machine.htm.persistent_abort_per_tx = cfg_.persistent;
      double t0 = now_s();
      auto set = std::make_unique<sihle::runtime::DomainSet>(dc);
      out.build_s = now_s() - t0;
      set.reset();
      t0 = now_s();
      const auto streams = service::build_request_streams(stream_config(cfg_));
      out.stream_build_s = now_s() - t0;
    }

    tr.close();  // bench.sim
    return out;
  }

 private:
  harness::ShardWorkloadConfig cfg_;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_workload(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(seed);
}

}  // namespace perfbench
