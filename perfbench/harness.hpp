#pragma once

// Measurement plumbing of the step-loop benchmark: the per-step recorder
// (step wall and CPU time with verification pauses excluded, one trace
// span per layer call, per-step deltas of the library's own counters),
// order statistics, and the Chrome trace export.

#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
/// Named values of one step (or of a whole session).
using Values = std::map<std::string, double>;

/// Sinks of the traced run. main() owns them and constructs them before
/// any rts::Runtime, so they outlive every worker that may still write
/// into them after a run detaches.
struct Sinks {
  paratreet::obs::MetricsRegistry* metrics = nullptr;
  paratreet::obs::TraceBuffer* trace = nullptr;
};

/// One timed step.
struct Step {
  double seconds = 0.0;  ///< wall time, verification pauses excluded
  double cpu_seconds = 0.0;  ///< CPU time of this process and its children,
                             ///< verification pauses excluded
  double paused = 0.0;   ///< verification time inside the step
  bool ok = true;
  Values layer;          ///< per-step layer values (see Recorder)
};

/// What one set-up-and-run of a workload measured.
struct Session {
  double setup_s = 0.0;  ///< set-up through the end of the warm-up step
  Step warmup;           ///< checked like the others, but not timed
  std::vector<Step> steps;
  std::vector<std::string> failures;  ///< first few failure diagnostics
  Values end;                         ///< end-of-session values
  bool end_ok = true;                 ///< end-of-run checks passed
};

/// Sum every counter and gauge of `reg`, by name; histogram counts are
/// exported bucket by bucket as "<name>#<bucket>".
inline Values snapshot(const paratreet::obs::MetricsRegistry& reg) {
  Values v;
  reg.forEachCounter([&](const paratreet::obs::Counter& c) {
    v[c.name()] = static_cast<double>(c.value());
  });
  reg.forEachGauge(
      [&](const paratreet::obs::Gauge& g) { v[g.name()] = g.value(); });
  reg.forEachHistogram([&](const paratreet::obs::Histogram& h) {
    const auto snap = h.snapshot();
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      v[h.name() + "#" + std::to_string(b)] =
          static_cast<double>(snap.counts[b]);
    }
  });
  return v;
}

/// Child processes of this process that still exist (zombies included):
/// the rank processes of the TCP transport.
inline std::vector<pid_t> childPids() {
  std::vector<pid_t> kids;
  const pid_t self = getpid();
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = e.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream stat(e.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // Fields after the parenthesised command: state, ppid, ...
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = -1;
    if (std::sscanf(line.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == static_cast<long>(self)) {
      kids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return kids;
}

/// CPU seconds used so far by process `pid` (0: this one), every thread
/// included; -1 once it is gone. The kernel leaves out time the host took
/// from the guest, so unlike wall time this does not grow when other
/// tenants load the machine.
inline double cpuSecondsOf(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && clock_getcpuclockid(pid, &clock) != 0) return -1.0;
  timespec t{};
  if (clock_gettime(clock, &t) != 0) return -1.0;
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Records a session. The first step is the warm-up: it ends set-up and
/// is kept out of `steps`. A step's CPU time sums this process and the
/// children alive when the step began. Layer calls go through layer(), which times
/// them into the step's values as "span.<name>" and, in the traced run,
/// records one TraceSpan each; the step itself becomes a "step" (or
/// "warmup") span that contains them. In the traced run every step also
/// gets the deltas of every registry instrument and of the probe's
/// cumulative values; the untraced run reads neither.
class Recorder {
 public:
  explicit Recorder(Sinks sinks) : sinks_(sinks) {}

  /// Cumulative library values (e.g. Forest::phaseTimes()) to delta per
  /// step; set once the object they read exists.
  void setProbe(std::function<Values()> probe) { probe_ = std::move(probe); }

  /// Start of set-up (after input generation).
  void begin() { setup_start_ = Clock::now(); }

  void stepBegin() {
    if (traced()) before_ = read();
    paused_ = 0.0;
    paused_cpu_ = 0.0;
    cur_ = Step{};
    kids_ = childPids();
    cpu_start_ = cpuNow();
    step_start_ = Clock::now();
  }

  void stepEnd() {
    const auto end = Clock::now();
    const Cpu cpu_end = cpuNow();
    cur_.paused = paused_;
    cur_.seconds =
        std::chrono::duration<double>(end - step_start_).count() - paused_;
    cur_.cpu_seconds = cpu_end.since(cpu_start_) - paused_cpu_;
    const bool warmup = !warmed_;
    if (sinks_.trace != nullptr) {
      paratreet::obs::TraceEvent ev;
      ev.name = warmup ? "warmup" : "step";
      ev.category = "step";
      ev.start_us = sinks_.trace->sinceOriginUs(step_start_);
      ev.duration_us =
          std::chrono::duration_cast<std::chrono::microseconds>(end - step_start_)
              .count();
      sinks_.trace->record(ev);
    }
    if (traced()) {
      for (const auto& [name, value] : read()) {
        const auto it = before_.find(name);
        cur_.layer[name] += value - (it == before_.end() ? 0.0 : it->second);
      }
    }
    if (warmup) {
      warmed_ = true;
      session_.setup_s =
          std::chrono::duration<double>(end - setup_start_).count() - paused_;
      session_.warmup = std::move(cur_);
    } else {
      session_.steps.push_back(std::move(cur_));
    }
  }

  /// Exclude the verification between pause() and resume() from the step.
  void pause() {
    pause_start_ = Clock::now();
    pause_cpu_ = cpuNow();
  }
  void resume() {
    const double s =
        std::chrono::duration<double>(Clock::now() - pause_start_).count();
    paused_ += s;
    paused_cpu_ += cpuNow().since(pause_cpu_);
  }

  /// One call into a layer: timed, and a span in the traced run.
  template <typename Fn>
  void layer(const char* name, Fn&& fn) {
    paratreet::obs::TraceSpan span(sinks_.trace, name, "layer");
    const auto t0 = Clock::now();
    fn();
    cur_.layer[std::string("span.") + name] +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void add(const std::string& name, double value) { cur_.layer[name] += value; }

  /// Mark the current step failed.
  void fail(const std::string& why) {
    cur_.ok = false;
    if (session_.failures.size() < 8) session_.failures.push_back(why);
  }

  /// Mark an end-of-run check failed.
  void failEnd(const std::string& why) {
    session_.end_ok = false;
    if (session_.failures.size() < 8) session_.failures.push_back(why);
  }

  Session& session() { return session_; }
  Session take() { return std::move(session_); }

 private:
  bool traced() const { return sinks_.metrics != nullptr; }

  /// CPU clocks of this process and of kids_, read together.
  struct Cpu {
    std::vector<double> s;
    /// CPU seconds since `start`, over the processes alive at both reads.
    double since(const Cpu& start) const {
      double d = 0.0;
      for (std::size_t i = 0; i < s.size() && i < start.s.size(); ++i) {
        if (s[i] >= 0.0 && start.s[i] >= 0.0) d += s[i] - start.s[i];
      }
      return d;
    }
  };
  Cpu cpuNow() const {
    Cpu c;
    c.s.push_back(cpuSecondsOf(0));
    for (const pid_t k : kids_) c.s.push_back(cpuSecondsOf(k));
    return c;
  }

  Values read() const {
    Values v;
    if (sinks_.metrics != nullptr) v = snapshot(*sinks_.metrics);
    if (probe_) {
      for (const auto& [k, x] : probe_()) v[k] = x;
    }
    return v;
  }

  Sinks sinks_;
  std::function<Values()> probe_;
  Session session_;
  Step cur_;
  Values before_;
  bool warmed_ = false;
  double paused_ = 0.0;
  double paused_cpu_ = 0.0;
  std::vector<pid_t> kids_;
  Cpu cpu_start_;
  Cpu pause_cpu_;
  Clock::time_point setup_start_{};
  Clock::time_point step_start_{};
  Clock::time_point pause_start_{};
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least `beyond` samples above it: the
/// (beyond + 1)-th largest sample. Returns {value, percentile}; with too
/// few samples, the median.
inline std::pair<double, double> tail(std::vector<double> v, std::size_t beyond) {
  if (v.size() <= 2 * beyond) return {median(v), 50.0};
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() - 1 - beyond;
  return {v[idx], 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(v.size())};
}

/// Put spans recorded from one thread (so strictly nested) in nesting
/// order: outer spans first. `events` must be in recording order
/// (TraceBuffer::snapshot()). A parent and its only child can agree to
/// the microsecond; the child ends first and so is recorded first, and
/// the stable sort over the reversed buffer puts the parent ahead.
inline void nestingOrder(std::vector<paratreet::obs::TraceEvent>& events) {
  std::reverse(events.begin(), events.end());
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.start_us != b.start_us ? a.start_us < b.start_us
                                    : a.duration_us > b.duration_us;
  });
}

/// Self time of every span (duration minus the time its direct children
/// cover), summed per span name; `events` as for nestingOrder().
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

inline std::map<std::string, SpanTotals> selfTimes(
    std::vector<paratreet::obs::TraceEvent> events) {
  nestingOrder(events);
  std::map<std::string, SpanTotals> out;
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!stack.empty()) {
      const auto& top = events[stack.back()];
      if (e.start_us < top.start_us + top.duration_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += static_cast<double>(e.duration_us);
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& t = out[events[i].name];
    ++t.count;
    t.total_s += static_cast<double>(events[i].duration_us) * 1e-6;
    t.self_s += (static_cast<double>(events[i].duration_us) - child_us[i]) * 1e-6;
  }
  return out;
}

/// Write `events` (as for nestingOrder()) as a Chrome trace
/// (chrome://tracing, Perfetto). Each layer span carries the index of the
/// step span that contains it.
inline bool writeChromeTrace(const std::string& path,
                             std::vector<paratreet::obs::TraceEvent> events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  nestingOrder(events);
  std::fprintf(f, "{\"traceEvents\":[\n");
  long step = -1;
  std::int64_t step_end = -1;
  bool first = true;
  for (const auto& e : events) {
    const bool is_step = std::string(e.category) == "step";
    if (is_step) {
      ++step;
      step_end = e.start_us + e.duration_us;
    }
    const long parent = (!is_step && e.start_us < step_end) ? step : -1;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
                 "\"dur\":%lld,\"pid\":1,\"tid\":1,\"args\":{\"step\":%ld}}",
                 first ? "" : ",\n", e.name, e.category,
                 static_cast<long long>(e.start_us),
                 static_cast<long long>(e.duration_us),
                 is_step ? step : parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
