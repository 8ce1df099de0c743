#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstddef>
#include <string_view>
#include <vector>

namespace paratreet::rts {

/// Activity categories matching the paper's Projections time profile
/// (Fig 9): the phases a worker can be busy with during a traversal
/// iteration.
enum class Activity : int {
  kTreeBuild = 0,
  kLocalTraversal,
  kCacheRequest,
  kCacheInsertion,
  kTraversalResumption,
  kRemoteTraversal,
  kOther,
  kCount,
};

constexpr std::size_t kNumActivities = static_cast<std::size_t>(Activity::kCount);

/// Human-readable names, index-aligned with Activity.
constexpr std::array<std::string_view, kNumActivities> kActivityNames = {
    "tree build",       "local traversal",     "cache request",
    "cache insertion",  "traversal resumption", "remote traversal",
    "other",
};

/// Accumulates per-activity busy time across all workers. One global
/// instance per measurement; workers record through obs::TimedScope. The
/// recording path is two atomic adds on scope exit, cheap enough to stay
/// enabled in benchmarks.
class ActivityProfiler {
 public:
  /// Busy-time accumulators are per-activity totals (seconds).
  void record(Activity a, double seconds) {
    auto idx = static_cast<std::size_t>(a);
    // Accumulate in nanoseconds to keep the atomic integral.
    totals_[idx].fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                           std::memory_order_relaxed);
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
  }

  double seconds(Activity a) const {
    return static_cast<double>(
               totals_[static_cast<std::size_t>(a)].load(std::memory_order_relaxed)) *
           1e-9;
  }
  std::uint64_t count(Activity a) const {
    return counts_[static_cast<std::size_t>(a)].load(std::memory_order_relaxed);
  }
  double totalSeconds() const {
    double t = 0;
    for (std::size_t i = 0; i < kNumActivities; ++i) {
      t += seconds(static_cast<Activity>(i));
    }
    return t;
  }

  void reset() {
    for (auto& t : totals_) t.store(0, std::memory_order_relaxed);
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    for (auto& bin : timeline_) {
      for (auto& cell : bin) cell.store(0, std::memory_order_relaxed);
    }
  }

  // --- timeline mode (the paper's Fig 9 Projections-style profile) ----------

  /// Additionally bucket busy time into wall-clock bins of `bin_seconds`,
  /// starting now. Call before the measured phase; at most kMaxBins bins
  /// are kept (later activity clamps into the last bin).
  void enableTimeline(double bin_seconds) {
    timeline_bin_s_ = bin_seconds;
    timeline_origin_ = std::chrono::steady_clock::now();
    timeline_enabled_ = true;
  }

  static constexpr std::size_t kMaxBins = 256;

  bool timelineEnabled() const { return timeline_enabled_; }
  double timelineBinSeconds() const { return timeline_bin_s_; }

  /// Busy seconds of `a` in timeline bin `bin`.
  double timelineSeconds(std::size_t bin, Activity a) const {
    return static_cast<double>(
               timeline_[bin][static_cast<std::size_t>(a)].load(
                   std::memory_order_relaxed)) *
           1e-9;
  }

  /// Index of the last bin with any recorded activity (0 if none).
  std::size_t timelineLastBin() const {
    for (std::size_t b = kMaxBins; b-- > 0;) {
      for (std::size_t a = 0; a < kNumActivities; ++a) {
        if (timeline_[b][a].load(std::memory_order_relaxed) != 0) return b;
      }
    }
    return 0;
  }

  /// Record one timed interval (obs::TimedScope's profiler sink).
  void recordInterval(Activity a,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
    const double seconds = std::chrono::duration<double>(end - start).count();
    record(a, seconds);
    if (!timeline_enabled_) return;
    // Attribute the interval to the bin containing its start; intervals
    // are short relative to the bin width, so spill is negligible.
    const double offset =
        std::chrono::duration<double>(start - timeline_origin_).count();
    auto bin = offset <= 0.0 ? 0
                             : static_cast<std::size_t>(offset / timeline_bin_s_);
    if (bin >= kMaxBins) bin = kMaxBins - 1;
    timeline_[bin][static_cast<std::size_t>(a)].fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9), std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumActivities> totals_{};
  std::array<std::atomic<std::uint64_t>, kNumActivities> counts_{};

  bool timeline_enabled_{false};
  double timeline_bin_s_{0.05};
  std::chrono::steady_clock::time_point timeline_origin_{};
  std::array<std::array<std::atomic<std::uint64_t>, kNumActivities>, kMaxBins>
      timeline_{};
};

}  // namespace paratreet::rts
