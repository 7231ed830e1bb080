// sihle-lint: disable-file=R005 — this benchmark *measures* host wall-clock
// time; the reading never feeds a simulation decision, so it is not an
// unlogged scheduling choice.
#include <chrono>

#include "bench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::open(const char* name, Stage stage) {
  const double t = now_s();
  int idx = -1;
  if (keep_) {
    int parent = -1;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (it->span >= 0) {
        parent = it->span;
        break;
      }
    }
    idx = static_cast<int>(spans_.size());
    spans_.push_back({name, parent, stage, t, t});
  }
  open_.push_back({idx, stage, t});
}

double Tracer::close() {
  const double t = now_s();
  const Open o = open_.back();
  open_.pop_back();
  if (o.span >= 0) spans_[static_cast<std::size_t>(o.span)].end = t;
  const double d = t - o.start;
  stage_s_[static_cast<int>(o.stage)] += d;
  return d;
}

void Tracer::measured_child(const char* name, Stage stage, double seconds) {
  const Open& parent = open_.back();
  // The parent's close() adds its whole duration to its own stage; take the
  // child's share back out so each second is counted once.
  stage_s_[static_cast<int>(parent.stage)] -= seconds;
  stage_s_[static_cast<int>(stage)] += seconds;
  if (keep_ && parent.span >= 0) {
    const double t = now_s();
    spans_.push_back({name, parent.span, stage, t - seconds, t});
  }
}

}  // namespace perfbench
