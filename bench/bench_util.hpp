#pragma once

// Shared helpers for the table/figure reproduction harnesses.
//
// Each bench binary regenerates one table or figure of the paper. On this
// reproduction's single shared-memory node, "processes" are the runtime's
// logical ranks and the interconnect is the CommModel (see DESIGN.md);
// absolute times differ from the paper's supercomputers, but the series
// *shapes* (who wins, by what factor, where crossovers happen) are the
// reproduction targets recorded in EXPERIMENTS.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/interaction_list.hpp"
#include "observability/instrumentation.hpp"
#include "observability/report.hpp"
#include "rts/runtime.hpp"

namespace paratreet::bench {

/// The one shared `--flag=value` parser of every bundled binary
/// (quickstart, gravity_sim, the bench_* harnesses). Construct it over
/// main()'s argc/argv; each accessor strips its flags from argv in place
/// — wherever they appear, so positional-argument indices are unaffected
/// — applies defaults, and rejects malformed values with a usage message
/// and exit(2) rather than silently benchmarking the wrong thing.
///
/// Flags, by accessor:
///   metricsOut()      --metrics-out=<file>        ("-" = stdout)
///   chaos()           --chaos-seed=<n> --fault-drop=<p> --fault-corrupt=<p>
///   checkpointInto()  --checkpoint-every=K --checkpoint-dir=<path>
///                     --checkpoint-keep=K --resume --fault-torn-write
///                     --crash-at-step=N
///                     --wedge-at-step=N --recovery-mode=restart|shrink
///                     --drain-deadline-ms=T --max-restarts=N
///   kernel()          --kernel=visitor|batched
///   transport()       --transport=inproc|tcp --tcp-host=<ip> --tcp-port=<n>
///                     --heartbeat-ms=T --miss-threshold=N
class ArgParser {
 public:
  ArgParser(int& argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Strip every occurrence of `--<name>=<value>` and store the last
  /// value seen; true when the flag was present. `name` must include the
  /// trailing '=' (e.g. "--out=").
  bool flag(std::string_view name, std::string& value) {
    bool found = false;
    int kept = 1;
    for (int i = 1; i < argc_; ++i) {
      const std::string_view arg = argv_[i];
      if (arg.substr(0, name.size()) == name) {
        value = std::string(arg.substr(name.size()));
        found = true;
      } else {
        argv_[kept++] = argv_[i];
      }
    }
    argc_ = kept;
    return found;
  }

  /// Strip every occurrence of the bare flag `--<name>` (no '=value');
  /// true when it was present at least once.
  bool boolFlag(std::string_view name) {
    bool found = false;
    int kept = 1;
    for (int i = 1; i < argc_; ++i) {
      if (name == argv_[i]) {
        found = true;
      } else {
        argv_[kept++] = argv_[i];
      }
    }
    argc_ = kept;
    return found;
  }

  /// `--metrics-out=<path>`: the path ("-" means stdout; empty when the
  /// flag is absent). Every bench shares this one flag as its way to opt
  /// into the observability layer.
  std::string metricsOut() {
    std::string path;
    flag("--metrics-out=", path);
    return path;
  }

  /// The chaos flags:
  ///
  ///   --chaos-seed=<n>     enable fault injection with seed n and a
  ///                        standard mixed schedule (drops, duplicates,
  ///                        delays, a few reorders) unless probabilities
  ///                        are given explicitly
  ///   --fault-drop=<p>     enable injection and set the drop probability
  ///   --fault-corrupt=<p>  enable injection and set the per-frame payload
  ///                        bit-flip probability; the frame CRC catches
  ///                        the damage and retransmission heals it
  ///
  /// Returns a disabled config when no flag is present. Enabled
  /// schedules arm the drain watchdog (30 s) so a bug in resilient
  /// delivery surfaces as a thrown diagnostic instead of a hung bench.
  rts::FaultConfig chaos() {
    rts::FaultConfig fault;
    std::string value;
    if (flag("--chaos-seed=", value)) {
      fault.enabled = true;
      fault.seed = std::strtoull(value.c_str(), nullptr, 10);
      fault.drop_p = 0.1;
      fault.duplicate_p = 0.05;
      fault.delay_p = 0.1;
      fault.reorder_p = 0.05;
    }
    if (flag("--fault-drop=", value)) {
      fault.enabled = true;
      fault.drop_p = std::strtod(value.c_str(), nullptr);
    }
    if (flag("--fault-corrupt=", value)) {
      fault.enabled = true;
      fault.corrupt_p = std::strtod(value.c_str(), nullptr);
    }
    if (fault.enabled) fault.drain_deadline_ms = 30000.0;
    return fault;
  }

  /// The checkpoint/crash flags, applied to `conf`:
  ///
  ///   --checkpoint-every=K   double in-memory checkpoint after every
  ///                          K-th iteration (0 disables; default off)
  ///   --checkpoint-dir=<path>
  ///                          also persist every sealed generation to
  ///                          disk, crash-consistently (ckpt_<step>/
  ///                          with MANIFEST + CRCs, tmp-then-rename);
  ///                          the directory is created when missing
  ///   --checkpoint-keep=K    on-disk generations retained (default 2);
  ///                          older ones are garbage-collected
  ///   --resume               continue a dead job: restore the newest
  ///                          on-disk generation that passes its CRCs
  ///                          (falling back past torn/corrupt ones) and
  ///                          run on from the following step — bitwise
  ///                          the uninterrupted run. Safe to pass when
  ///                          the directory is still empty (fresh start)
  ///   --fault-torn-write     keep the newest on-disk generation torn
  ///                          (seeded truncation/bit-flip) so a resume
  ///                          must exercise the older-generation
  ///                          fallback; see FaultConfig::torn_write
  ///   --crash-at-step=N      kill one seeded rank mid-iteration N; with
  ///                          checkpointing on the run recovers from the
  ///                          newest sealed generation and resumes,
  ///                          without it the crash surfaces as a thrown
  ///                          QuiescenceTimeout diagnostic (never a hang)
  ///   --wedge-at-step=N      hang one seeded rank mid-iteration N
  ///                          (alive but silent — SIGSTOP over TCP,
  ///                          parked scheduling inproc); only heartbeats
  ///                          can detect it, after which recovery runs
  ///                          the same checkpoint path as a crash
  ///   --recovery-mode=restart|shrink
  ///                          restart the dead rank (default) or shrink
  ///                          the run onto the survivors
  ///   --max-restarts=N       RecoveryPolicy.max_restarts_per_rank:
  ///                          restarts granted to one rank before
  ///                          escalation to shrink (0 = never restart)
  ///   --drain-deadline-ms=T  watchdog deadline (crash-detection
  ///                          latency); defaults to 30 s when a crash or
  ///                          wedge is scheduled
  ///   --fetch-depth=D        Configuration::fetch_depth. Relevant here
  ///                          because bitwise run-to-run reproducibility
  ///                          (what `--resume` promises, and what CI's
  ///                          cmp(1) gates check) needs a deterministic
  ///                          force-summation order: with a shallow
  ///                          fetch depth, traversals resume in cache-
  ///                          response ARRIVAL order and accelerations
  ///                          accumulate with run-varying last-ulp
  ///                          rounding. A depth that prefetches the
  ///                          whole tree (e.g. 32) removes mid-
  ///                          traversal fetches and makes two runs of
  ///                          the same config byte-identical. Part of
  ///                          the config compatibility hash, so a
  ///                          resume under a different depth is
  ///                          rejected rather than silently diverging
  ///
  /// The crash/wedge victim and its task budget stay seeded (fault.seed,
  /// shared with --chaos-seed), so sweeps over seeds vary where the
  /// fault lands.
  void checkpointInto(Configuration& conf) {
    std::string value;
    if (flag("--checkpoint-every=", value)) {
      conf.checkpoint_every = std::atoi(value.c_str());
    }
    if (flag("--checkpoint-dir=", value)) conf.checkpoint_dir = value;
    if (flag("--checkpoint-keep=", value)) {
      // Out-of-range values (e.g. 0) are rejected later by
      // Configuration::validate(), with the field named.
      conf.checkpoint_keep = std::atoi(value.c_str());
    }
    if (boolFlag("--resume")) conf.resume = true;
    if (boolFlag("--fault-torn-write")) conf.fault.torn_write = true;
    if (flag("--crash-at-step=", value)) {
      conf.fault.crash_step = std::atoi(value.c_str());
    }
    if (flag("--wedge-at-step=", value)) {
      conf.fault.wedge_step = std::atoi(value.c_str());
    }
    if (flag("--drain-deadline-ms=", value)) {
      conf.fault.drain_deadline_ms = std::strtod(value.c_str(), nullptr);
    }
    if (flag("--fetch-depth=", value)) {
      conf.fetch_depth = std::atoi(value.c_str());
    }
    if (flag("--recovery-mode=", value)) {
      if (!fromString(value, conf.recovery_mode)) {
        usageError("--recovery-mode=", "'restart' or 'shrink'", value);
      }
    }
    if (flag("--max-restarts=", value)) {
      conf.recovery.max_restarts_per_rank = std::atoi(value.c_str());
    }
  }

  /// `--kernel=visitor|batched`: the selected evaluation kernel
  /// (default: the inline visitor path). "batched" selects the two-phase
  /// interaction-list path with SoA batch kernels (core/batch_eval.hpp).
  EvalKernel kernel() {
    std::string value;
    if (!flag("--kernel=", value)) return EvalKernel::kVisitor;
    if (value == "visitor") return EvalKernel::kVisitor;
    if (value == "batched") return EvalKernel::kBatched;
    usageError("--kernel=", "'visitor' or 'batched'", value);
  }

  /// The transport flags (README "Running ranks as processes"):
  ///
  ///   --transport=inproc|tcp  which backend carries cross-rank messages:
  ///                           per-proc queues in one address space
  ///                           (default) or each rank a forked OS process
  ///                           speaking length-prefixed frames over
  ///                           sockets
  ///   --tcp-host=<ip>         IPv4 literal the rank processes dial back
  ///                           to (default 127.0.0.1)
  ///   --tcp-port=<n>          listening port (default 0 = ephemeral)
  ///   --heartbeat-ms=T        liveness ping interval (0 = heartbeats
  ///                           off, the default); a rank that misses
  ///                           enough consecutive pings is declared dead
  ///                           and recovered like a crash
  ///   --miss-threshold=N      consecutive missed heartbeats before a
  ///                           rank is declared dead (default 3)
  ///
  /// Plumb the result into both Configuration::transport (declarative,
  /// validated) and Runtime::Config::transport (what the runtime builds).
  rts::TransportConfig transport() {
    rts::TransportConfig t;
    std::string value;
    if (flag("--transport=", value)) {
      if (!rts::fromString(value, t.kind)) {
        usageError("--transport=", "'inproc' or 'tcp'", value);
      }
    }
    if (flag("--tcp-host=", value)) t.host = value;
    if (flag("--tcp-port=", value)) t.port = std::atoi(value.c_str());
    if (flag("--heartbeat-ms=", value)) {
      t.heartbeat_interval_ms = std::strtod(value.c_str(), nullptr);
    }
    if (flag("--miss-threshold=", value)) {
      t.miss_threshold = std::atoi(value.c_str());
    }
    return t;
  }

 private:
  [[noreturn]] static void usageError(const char* name, const char* expected,
                                      const std::string& got) {
    std::fprintf(stderr, "%s expects %s, got '%s'\n", name, expected,
                 got.c_str());
    std::exit(2);
  }

  int& argc_;
  char** argv_;
};

/// End-of-run half of the --metrics-out story: no-op when `path` is empty,
/// otherwise serialize the run's instrumentation as one JSON report.
inline void writeMetricsReport(const Instrumentation& instr,
                               const std::string& path) {
  if (path.empty()) return;
  try {
    obs::Reporter(instr).writeJson(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--metrics-out: %s\n", e.what());
    return;
  }
  if (path != "-") {
    std::printf("\nmetrics report written to %s\n", path.c_str());
  }
}

/// The modeled interconnect used whenever a bench wants communication
/// volume visible in wall-clock time: 20 us latency + 1 GB/s.
inline rts::CommModel defaultInterconnect() {
  rts::CommModel comm;
  comm.latency_us = 20.0;
  comm.us_per_byte = 0.001;
  return comm;
}

/// Print a labelled horizontal bar scaled to `max_value` (ASCII "figure").
inline void printBar(const std::string& label, double value, double max_value,
                     const char* unit) {
  const int width = 46;
  int fill = max_value > 0
                 ? static_cast<int>(value / max_value * width + 0.5)
                 : 0;
  if (fill > width) fill = width;
  std::printf("  %-26s %8.3f %-4s |%s\n", label.c_str(), value, unit,
              std::string(static_cast<std::size_t>(fill), '#').c_str());
}

/// Print the standard series header for a figure bench.
inline void printHeader(const char* figure, const char* description) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==========================================================\n");
}

}  // namespace paratreet::bench
