#pragma once

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "rts/profiler.hpp"

namespace paratreet {

/// The instrumentation context handed to Driver::run() / Forest: a
/// non-owning bundle of the three sinks the framework can emit into. Any
/// member may be null — every emitter treats a null sink as "disabled",
/// so a default-constructed Instrumentation is a zero-overhead no-op.
///
/// This replaces the old `rts::ActivityProfiler*` raw-pointer parameter:
/// one handle now carries activity profiling, the metrics registry, and
/// structured tracing together, and the caller owns the sinks.
struct Instrumentation {
  rts::ActivityProfiler* profiler = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;

  bool enabled() const {
    return profiler != nullptr || metrics != nullptr || trace != nullptr;
  }

  /// Sinks for a task-body interval: a Fig 9 activity plus up to two
  /// accumulators (e.g. Partition::measured_load and the recorder's
  /// record seconds). No registry lookup, so safe on the hot path.
  obs::TimedScope::Sinks activity(rts::Activity a, double* into = nullptr,
                                  double* also = nullptr) const {
    return {.into = {into, also}, .profiler = profiler, .activity = a};
  }

  /// Sinks for a once-per-phase interval: a trace span, the registry
  /// gauge `gauge`, and optionally one accumulator (a PhaseTimes slot).
  obs::TimedScope::Sinks phase(const char* span, const char* category,
                               const char* gauge,
                               double* into = nullptr) const {
    return {.trace = trace, .name = span, .category = category,
            .metrics = metrics, .gauge = gauge, .into = {into}};
  }
};

/// Owning convenience bundle for applications and benches: declare one
/// Observability on the stack, pass handle() to run(), then report.
struct Observability {
  rts::ActivityProfiler profiler;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;

  Instrumentation handle() {
    return Instrumentation{&profiler, &metrics, &trace};
  }
};

}  // namespace paratreet
