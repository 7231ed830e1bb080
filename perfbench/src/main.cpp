// perfbench: the repository's host-cost benchmark (perfbench/README.md).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--golden=FILE] [--write-golden=FILE] [--trace-out=FILE]
//             [--commit=SHA]
//
// Builds the workload's inputs from the seed, then repeats passes of its
// fixed simulated work for S host seconds on this one host thread and
// reports medians over the passes.
//   --trace=0  the end-to-end metrics, from untraced passes.
//   --trace=1  the per-layer metrics: untraced passes (host rates and the
//              reference time) alternate with traced passes that keep spans
//              around every layer call and attach stats::EventTrace; the
//              spans go to --trace-out.
// Every simulation of every pass is checked: its invariants, its
// fingerprint against the first pass (determinism) and, for the golden
// seed, against --golden.  Lines starting with '#' describe the host and
// the inputs; the last line is one JSON object with the keys correct,
// attempted, failed and metrics.  Exit status: 0 all checks passed, 1 some
// simulation failed, 2 bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kGoldenSeed = 1;

const char* const kWorkloads[] = {"tree-contended", "tree-commit",
                                  "service-rw", "mc-explore"};

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string write_golden;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--golden=FILE] [--write-golden=FILE] "
               "[--trace-out=FILE] [--commit=SHA]\nworkloads:",
               why.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Accepts both --key=value and --key value.
Options parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage("unexpected argument '" + a + "'");
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      kv[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[a] = argv[++i];
    } else {
      usage("missing value for --" + a);
    }
  }
  Options o;
  for (const auto& [key, value] : kv) {
    try {
      std::size_t used = 0;
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        o.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "golden") {
        o.golden = value;
      } else if (key == "write-golden") {
        o.write_golden = value;
      } else if (key == "trace-out") {
        o.trace_out = value;
      } else if (key == "commit") {
        o.commit = value;
      } else {
        usage("unknown flag --" + key);
      }
      if (used != 0 && used != value.size()) throw std::invalid_argument(value);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for --" + key);
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
      std::end(kWorkloads)) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  if (!o.write_golden.empty() && o.seed != kGoldenSeed) {
    usage("--write-golden needs the golden seed " + std::to_string(kGoldenSeed));
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "service-rw") return make_service_workload(seed);
  if (name == "mc-explore") return make_mc_workload(seed);
  return make_tree_workload(name, seed);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004U) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_json(const Options& o) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
     << json_escape(compiler()) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"commit\": \"" << json_escape(o.commit)
     << "\", \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0) << "}";
  return os.str();
}

// --- Passes ------------------------------------------------------------------

struct TimedPass {
  double setup_s = 0.0;
  double run_s = 0.0;
  PassResult result;
  std::vector<Span> spans;  // traced passes only
};

TimedPass run_pass(Workload& w, bool traced) {
  Tracer tr(traced);
  TimedPass p;
  p.result = w.run_pass(tr, traced);
  p.setup_s = tr.stage_s(Stage::kSetup);
  p.run_s = tr.stage_s(Stage::kRun);
  p.spans = tr.spans();
  return p;
}

// Repeats passes until `seconds` have elapsed; always at least one.  With
// `trace`, untraced and traced passes alternate, so both kinds sample the
// same host conditions and their times can be compared.
void run_for(Workload& w, double seconds, bool trace,
             std::vector<TimedPass>& plain, std::vector<TimedPass>& traced) {
  const double deadline = now_s() + seconds;
  do {
    plain.push_back(run_pass(w, false));
    if (trace) traced.push_back(run_pass(w, true));
  } while (now_s() < deadline);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Host times are reported for the fastest pass.  The fixed work is the same
// in every pass and a busy host only ever adds time, so the minimum tracks
// the cost of the code; on a shared host the median also tracks how busy the
// neighbours were (perfbench/README.md, "Spread").
template <class F>
double best_of(const std::vector<TimedPass>& ps, F f) {
  double best = f(ps.front());
  for (const TimedPass& p : ps) best = std::min(best, f(p));
  return best;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Self time of every span: its duration minus the time its children cover.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// --- Checks ------------------------------------------------------------------

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::map<std::string, std::uint64_t> read_golden(const std::string& path) {
  std::map<std::string, std::uint64_t> g;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read golden file %s\n", path.c_str());
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    std::string hex;
    ls >> name >> hex;
    g[name] = std::stoull(hex, nullptr, 16);
  }
  return g;
}

Verdict check(const std::vector<const TimedPass*>& passes, const Options& o) {
  std::map<std::string, std::uint64_t> golden;
  const bool use_golden = o.seed == kGoldenSeed && !o.golden.empty();
  if (use_golden) golden = read_golden(o.golden);
  std::map<std::string, std::uint64_t> first;
  std::set<std::string> reported;
  Verdict v;
  for (const TimedPass* p : passes) {
    for (const SimOutcome& s : p->result.sims) {
      ++v.attempted;
      std::string why = s.broken;
      const auto [it, fresh] = first.emplace(s.name, s.fingerprint);
      if (why.empty() && !fresh && it->second != s.fingerprint) {
        why = "fingerprint differs between passes";
      }
      if (why.empty() && use_golden) {
        const auto g = golden.find(s.name);
        if (g == golden.end()) {
          why = "no golden fingerprint";
        } else if (g->second != s.fingerprint) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "fingerprint %016llx != golden %016llx",
                        static_cast<unsigned long long>(s.fingerprint),
                        static_cast<unsigned long long>(g->second));
          why = buf;
        }
      }
      if (why.empty()) continue;
      ++v.failed;
      if (reported.insert(s.name).second) {
        std::fprintf(stderr, "perfbench: FAIL %s: %s\n", s.name.c_str(),
                     why.c_str());
      }
    }
  }
  return v;
}

void write_golden(const std::string& path, const TimedPass& p,
                  const Options& o) {
  std::ofstream out(path);
  out << "# perfbench golden fingerprints: workload " << o.workload
      << ", seed " << o.seed << "\n";
  for (const SimOutcome& s : p.result.sims) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(s.fingerprint));
    out << s.name << " " << hex << "\n";
  }
}

// --- Metrics -----------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

// The kernel's high-water mark of this process image.  getrusage's
// ru_maxrss is only the fallback: it survives execve, so it can report the
// launching process's peak instead of ours.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Metrics end_to_end(const std::vector<TimedPass>& ps) {
  const double run_s = best_of(ps, [](const TimedPass& p) { return p.run_s; });
  return {
      {"setup_s", {best_of(ps, [](const TimedPass& p) { return p.setup_s; }), "s"}},
      {"run_s", {run_s, "s"}},
      {"events_per_s",
       {ratio(ps.front().result.counts.work_events(), run_s), "1/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

Metrics per_layer(const std::vector<TimedPass>& plain,
                  const std::vector<TimedPass>& traced, const Verdict& v) {
  const Counts& k = traced.back().result.counts;
  const auto& st = k.ops;
  const double ops = static_cast<double>(st.ops());
  const double attempts = static_cast<double>(st.spec_commits + st.aborts);
  const double run_s = best_of(plain, [](const TimedPass& p) { return p.run_s; });
  std::vector<double> sim_ms;
  for (const TimedPass& p : plain) {
    for (const double s : p.result.sim_run_s) sim_ms.push_back(s * 1e3);
  }

  Metrics m;
  const auto put = [&m](const std::string& name, double value, const char* unit) {
    m.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  };
  put("sim.events", k.events, "count");
  put("sim.events_per_op", ratio(k.events, ops), "count");
  put("sim.ns_per_event", ratio(run_s, k.events) * 1e9, "ns");
  put("sim.host_ms_p50", quantile(sim_ms, 0.5), "ms");
  put("sim.host_ms_p90", quantile(sim_ms, 0.9), "ms");
  put("sim.host_samples", static_cast<double>(sim_ms.size()), "count");
  put("sim.frames_served", k.frames_served, "count");
  put("sim.frame_recycle_frac", ratio(k.frames_recycled, k.frames_served), "frac");
  put("sim.makespan_cycles", k.makespan_cycles, "cycles");

  put("htm.attempts", attempts, "count");
  put("htm.commits", static_cast<double>(st.spec_commits), "count");
  put("htm.commit_frac", ratio(static_cast<double>(st.spec_commits), attempts), "frac");
  for (std::size_t c = 1; c < sihle::htm::kNumAbortCauses; ++c) {
    put(std::string("htm.aborts.") +
            std::string(sihle::htm::to_string(static_cast<sihle::htm::AbortCause>(c))),
        static_cast<double>(st.abort_causes[c]), "count");
  }
  put("htm.dooms", k.dooms, "count");

  put("elision.attempts_per_op", st.attempts_per_op(), "count");
  put("elision.nonspec_frac", st.nonspec_fraction(), "frac");
  put("elision.aux_acquisitions", static_cast<double>(st.aux_acquisitions), "count");
  put("elision.lock_held_arrival_frac", st.arrival_lock_held_fraction(), "frac");
  put("elision.body_calls", k.body_calls, "count");

  put("ds.ops", ops, "count");
  put("ds.final_size", k.final_size, "count");
  put("ds.valid", ops > 0 && k.valid ? 1.0 : 0.0, "bool");

  put("runtime.build_s",
      best_of(traced, [](const TimedPass& p) { return p.result.build_s; }), "s");
  put("runtime.epochs", k.epochs, "count");
  put("runtime.remote_ops", k.remote_ops, "count");
  put("runtime.events_per_epoch", ratio(k.events, k.epochs), "count");
  put("runtime.us_per_epoch", ratio(run_s, k.epochs) * 1e6, "us");

  put("service.stream_build_s",
      best_of(traced, [](const TimedPass& p) { return p.result.stream_build_s; }),
      "s");
  put("service.offered", k.offered, "count");
  put("service.admitted", k.admitted, "count");
  put("service.dropped", k.dropped, "count");
  put("service.served", k.served, "count");
  put("service.drop_frac", ratio(k.dropped, k.offered), "frac");
  put("service.max_queue_depth", k.max_queue_depth, "count");
  put("service.qdelay_p99_cycles", k.qdelay_p99_cycles, "cycles");
  put("service.service_p99_cycles", k.service_p99_cycles, "cycles");
  put("service.lemming_shards", k.lemming_shards, "count");

  put("mc.transitions", k.transitions, "count");
  put("mc.transitions_per_schedule", ratio(k.transitions, k.schedules), "count");
  put("mc.sleep_pruned", k.sleep_pruned, "count");
  put("mc.singleton_commits", k.singleton_commits, "count");
  put("mc.prune_frac", ratio(k.sleep_pruned, k.schedules + k.sleep_pruned), "frac");
  put("mc.us_per_schedule", ratio(run_s, k.schedules) * 1e6, "us");
  put("mc.ns_per_transition", ratio(run_s, k.transitions) * 1e9, "ns");
  put("mc.complete", k.schedules > 0 && k.complete ? 1.0 : 0.0, "bool");
  put("mc.counterexamples", k.counterexamples, "count");

  put("vt_ops_per_mcycle", ratio(ops * 1e6, k.makespan_cycles), "ops/Mcycle");
  put("vt_sojourn_p99_cycles", k.sojourn_p99_cycles, "cycles");
  put("mc_schedules", k.schedules, "count");
  put("fail_frac",
      ratio(static_cast<double>(v.failed), static_cast<double>(v.attempted)),
      "frac");

  double aborted = 0.0;
  for (const double c : k.aborted_cycles) aborted += c;
  put("vt.aborted_cycles_frac", ratio(aborted, k.thread_cycles), "frac");
  for (std::size_t c = 1; c < sihle::htm::kNumAbortCauses; ++c) {
    put(std::string("vt.aborted_cycles_frac.") +
            std::string(sihle::htm::to_string(static_cast<sihle::htm::AbortCause>(c))),
        ratio(k.aborted_cycles[c], k.thread_cycles), "frac");
  }

  // Tracing overhead and reconciliation: the traced passes' per-layer self
  // times of set-up and run spans against the untraced set-up + run time.
  const double traced_run =
      best_of(traced, [](const TimedPass& p) { return p.run_s; });
  put("trace.overhead_frac", ratio(traced_run, run_s) - 1.0, "frac");
  const double plain_total =
      best_of(plain, [](const TimedPass& p) { return p.setup_s + p.run_s; });
  const double covered = best_of(traced, [](const TimedPass& p) {
    const std::vector<double> self = self_times(p.spans);
    double sum = 0.0;
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
      if (p.spans[i].stage != Stage::kOther) sum += self[i];
    }
    return sum;
  });
  put("trace.reconcile_frac", ratio(covered, plain_total) - 1.0, "frac");
  for (const char* layer : {"bench", "elision", "runtime", "ds", "harness", "mc"}) {
    const double self = best_of(traced, [layer](const TimedPass& p) {
      const std::vector<double> s = self_times(p.spans);
      double sum = 0.0;
      for (std::size_t i = 0; i < p.spans.size(); ++i) {
        if (layer_of(p.spans[i].name) == layer) sum += s[i];
      }
      return sum;
    });
    put(std::string(layer) + ".self_s", self, "s");
  }
  return m;
}

void write_trace(const std::string& path, const std::vector<TimedPass>& traced,
                 const Options& o) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const double t0 = traced.front().spans.empty() ? 0.0 : traced.front().spans[0].start;
  out << "{\"host\": " << host_json(o) << ",\n\"traceEvents\": [";
  const char* const stage_names[] = {"setup", "run", "other"};
  bool first = true;
  for (std::size_t pass = 0; pass < traced.size(); ++pass) {
    for (const Span& s : traced[pass].spans) {
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"stage\": \"%s\"}}",
                    first ? "" : ",", json_escape(s.name).c_str(), pass,
                    (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                    stage_names[static_cast<int>(s.stage)]);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

void print_result(const Verdict& v, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              v.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed));
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].first.c_str(), m[i].second.first, m[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  std::printf("# host %s\n", host_json(o).c_str());
  std::printf("# inputs %016llx\n",
              static_cast<unsigned long long>(w->input_digest()));
  std::fflush(stdout);

  std::vector<TimedPass> plain;
  std::vector<TimedPass> traced;
  run_for(*w, o.seconds, o.trace, plain, traced);
  // The raw samples behind the medians, one line per pass.
  for (const std::vector<TimedPass>* ps : {&plain, &traced}) {
    for (const TimedPass& p : *ps) {
      std::printf("# pass traced=%d setup_s=%.9f run_s=%.9f sim_run_ms=",
                  ps == &traced ? 1 : 0, p.setup_s, p.run_s);
      for (std::size_t i = 0; i < p.result.sim_run_s.size(); ++i) {
        std::printf("%s%.4f", i == 0 ? "" : ",", p.result.sim_run_s[i] * 1e3);
      }
      std::printf("\n");
    }
  }

  std::vector<const TimedPass*> all;
  for (const TimedPass& p : plain) all.push_back(&p);
  for (const TimedPass& p : traced) all.push_back(&p);
  if (!o.write_golden.empty()) write_golden(o.write_golden, plain.front(), o);
  const Verdict v = check(all, o);

  if (o.trace && !o.trace_out.empty()) write_trace(o.trace_out, traced, o);
  print_result(v, o.trace ? per_layer(plain, traced, v) : end_to_end(plain));
  return v.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
