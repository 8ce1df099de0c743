#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "observability/metrics.hpp"
#include "rts/profiler.hpp"

namespace paratreet::obs {

/// One completed span: a named interval on one worker thread. Matches the
/// Chrome trace_event "complete" ("ph":"X") event shape so a dump can be
/// loaded straight into chrome://tracing / Perfetto.
struct TraceEvent {
  const char* name = "";      ///< static string (span sites are literals)
  const char* category = "";  ///< e.g. "phase", "traversal", "cache"
  std::int64_t start_us = 0;  ///< microseconds since the buffer's origin
  std::int64_t duration_us = 0;
  std::int32_t proc = -1;     ///< logical process (-1: off-worker)
  std::int32_t worker = -1;   ///< worker within the process (-1: off-worker)
};

/// Fixed-capacity concurrent buffer of completed spans.
///
/// Recording is wait-free: one fetch_add claims a slot, one plain write
/// fills it, one release-store publishes it. When the buffer fills, later
/// spans are counted in dropped() and otherwise discarded — tracing
/// degrades, it never blocks the traversal.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 16)
      : origin_(std::chrono::steady_clock::now()),
        slots_(capacity),
        ready_(capacity) {
    for (auto& r : ready_) r.store(false, std::memory_order_relaxed);
  }

  std::chrono::steady_clock::time_point origin() const { return origin_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Number of spans successfully recorded (clamped to capacity).
  std::size_t size() const {
    return std::min(next_.load(std::memory_order_acquire), slots_.size());
  }
  std::uint64_t dropped() const {
    const auto claimed = next_.load(std::memory_order_relaxed);
    return claimed > slots_.size() ? claimed - slots_.size() : 0;
  }

  void record(const TraceEvent& ev) {
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= slots_.size()) return;
    slots_[slot] = ev;
    ready_[slot].store(true, std::memory_order_release);
  }

  /// Record a zero-length event stamped now (faults, escalations).
  void instant(const char* name, const char* category, std::int32_t proc,
               std::int32_t worker) {
    record({name, category, sinceOriginUs(std::chrono::steady_clock::now()),
            0, proc, worker});
  }

  /// Copy out every published span (export phase; racing recorders may
  /// still be claiming slots — unpublished slots are skipped).
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ready_[i].load(std::memory_order_acquire)) out.push_back(slots_[i]);
    }
    return out;
  }

  /// Discard all spans and restart the clock origin. Not concurrent-safe
  /// with record(); call between phases.
  void reset() {
    next_.store(0, std::memory_order_relaxed);
    for (auto& r : ready_) r.store(false, std::memory_order_relaxed);
    origin_ = std::chrono::steady_clock::now();
  }

  std::int64_t sinceOriginUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<TraceEvent> slots_;
  std::vector<std::atomic<bool>> ready_;
  std::atomic<std::size_t> next_{0};
};

/// The one instrumented scope: a library interval is timed here and
/// nowhere else. It reads steady_clock once when it opens and once when
/// it closes, and fans that single duration out to whichever sinks the
/// call site names — any of them may be absent, and with none at all the
/// scope never touches the clock:
///
///   trace     a completed span (name, category, proc, worker);
///   gauge     `metrics->gauge(gauge).add(seconds)` — the name is looked
///             up when the scope opens, so once-per-phase sites only,
///             never a task body;
///   into      up to two plain `double` accumulators (PhaseTimes,
///             Partition::measured_load, kernel phase seconds, ...);
///   profiler  a Fig 9 activity interval (totals and timeline).
///
/// Sinks are named with designated initializers, e.g.
///   TimedScope t({.trace = tb, .name = "build", .category = "phase",
///                 .into = {&times.build}});
class TimedScope {
 public:
  using Clock = std::chrono::steady_clock;

  struct Sinks {
    TraceBuffer* trace = nullptr;
    const char* name = "";
    const char* category = "";
    std::int32_t proc = -1;
    std::int32_t worker = -1;
    MetricsRegistry* metrics = nullptr;
    const char* gauge = nullptr;
    std::array<double*, 2> into{};
    rts::ActivityProfiler* profiler = nullptr;
    rts::Activity activity = rts::Activity::kOther;
  };

  explicit TimedScope(const Sinks& sinks)
      : sinks_(sinks),
        gauge_(sinks.metrics != nullptr && sinks.gauge != nullptr
                   ? &sinks.metrics->gauge(sinks.gauge)
                   : nullptr),
        active_(sinks.trace != nullptr || gauge_ != nullptr ||
                sinks.into[0] != nullptr || sinks.into[1] != nullptr ||
                sinks.profiler != nullptr),
        start_(active_ ? Clock::now() : Clock::time_point{}) {}
  TimedScope(const TimedScope&) = delete;
  TimedScope& operator=(const TimedScope&) = delete;

  ~TimedScope() {
    if (!active_) return;
    const auto end = Clock::now();
    const double seconds = std::chrono::duration<double>(end - start_).count();
    for (double* acc : sinks_.into) {
      if (acc != nullptr) *acc += seconds;
    }
    if (gauge_ != nullptr) gauge_->add(seconds);
    if (sinks_.profiler != nullptr) {
      sinks_.profiler->recordInterval(sinks_.activity, start_, end);
    }
    if (sinks_.trace != nullptr) {
      // Both ends truncate against the origin, so a nested span never
      // ends past its parent.
      const std::int64_t from = sinks_.trace->sinceOriginUs(start_);
      sinks_.trace->record({sinks_.name, sinks_.category, from,
                            sinks_.trace->sinceOriginUs(end) - from,
                            sinks_.proc, sinks_.worker});
    }
  }

 private:
  Sinks sinks_;
  Gauge* gauge_;  ///< looked up at open: the destructor must not throw
  bool active_;
  Clock::time_point start_;
};

/// A TimedScope feeding only a trace span. A null buffer makes it a no-op.
class TraceSpan : public TimedScope {
 public:
  TraceSpan(TraceBuffer* buffer, const char* name, const char* category,
            std::int32_t proc = -1, std::int32_t worker = -1)
      : TimedScope({.trace = buffer, .name = name, .category = category,
                    .proc = proc, .worker = worker}) {}
};

}  // namespace paratreet::obs
