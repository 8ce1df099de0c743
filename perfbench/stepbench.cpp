// The repository's step-loop benchmark. Runs one workload (see
// workloads.hpp) and prints its metrics, by name and with units, ending
// with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 measures the end-to-end metrics with tracing off. A run
// measures kRealizations independent draws of the workload's initial
// conditions, each set up afresh and then stepped, about --seconds of
// timed steps in all. The step time of one draw differs from another's by
// up to ~15% (gravity-plummer), so one draw per run would make the run's
// figures depend on the seed more than on the code. Each draw runs in a
// process of its own (this program again, with --draw), so the draws do
// not share one randomised address-space layout, whose effect would be
// common to every step of the run, and each draw's peak RSS is its own.
// The gated step metrics are CPU time (every thread of the draw's process
// and of its rank processes): on a shared host the wall time of the same
// run drifts by tens of percent with the other tenants' load, while its
// CPU time does not. The wall-time step metrics are printed here too, and
// reported by the traced run.
// --trace 1 measures the per-layer metrics on the first draw: an untraced
// loop, the same loop again with a MetricsRegistry and a TraceBuffer
// attached (one span per layer call, written out as a Chrome trace), and
// a short 1 x 1 pass for the single-threaded baseline.
//
// Usage: stepbench --workload <name> --seed <n> --seconds <n> --trace 0|1
//                  [--scratch <dir>] [--chrome-trace <file>] [--smoke]

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr const char* kUsage =
    "usage: stepbench --workload <name> --seed <n> --seconds <n> --trace 0|1\n"
    "                 [--scratch <dir>] [--chrome-trace <file>] [--smoke]\n"
    "workloads: gravity-plummer sph-clustered disk-collision gravity-durable-tcp\n"
    "--smoke runs each workload at a tenth of its size for 2 timed steps\n"
    "(sanitizer builds); its figures are not the benchmark's.\n"
    "--draw <r> --steps <n> (used by --trace 0 itself) runs draw r alone for\n"
    "n timed steps and prints its raw figures.\n";

/// Draws of the initial conditions per --trace 0 run; setup_s is the
/// median over the draws, peak_rss_mib the mean.
constexpr int kRealizations = 6;
/// Fewest timed steps per draw.
constexpr int kMinSteps = 4;
/// step_s.tail is the highest percentile with this many steps beyond it.
constexpr std::size_t kTailBeyond = 10;

struct WorkloadDef {
  const char* name;
  std::size_t n;
  std::function<std::unique_ptr<Workload>(std::size_t, std::uint64_t)> make;
};

template <typename W>
std::unique_ptr<Workload> make(std::size_t n, std::uint64_t seed) {
  return std::make_unique<W>(n, seed);
}

const WorkloadDef kWorkloads[] = {
    {"gravity-plummer", 50000, make<GravityPlummer>},
    {"sph-clustered", 100000, make<SphClustered>},
    {"disk-collision", 100000, make<DiskCollision>},
    {"gravity-durable-tcp", 20000, make<GravityDurableTcp>},
};

struct Args {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  int trace = -1;
  std::string scratch = ".";
  std::string chrome_trace;
  bool smoke = false;
  int draw = -1;  ///< --draw: run this draw alone (a child of --trace 0)
  int steps = 0;  ///< --steps: timed steps of that draw
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "stepbench: %s\n%s", error.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parseCount(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " wants a whole number, got '" + text + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) usage(flag + " is out of range: " + text);
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      a.seed = parseCount(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parseCount(flag, value);
      if (a.seconds == 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1, got '" + value + "'");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else if (flag == "--chrome-trace") {
      a.chrome_trace = value;
    } else if (flag == "--draw") {
      a.draw = static_cast<int>(parseCount(flag, value));
      if (a.draw >= kRealizations) usage("--draw must be below " + std::to_string(kRealizations));
    } else if (flag == "--steps") {
      a.steps = static_cast<int>(parseCount(flag, value));
      if (a.steps == 0) usage("--steps must be positive");
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (a.seconds == 0) usage("--seconds is required");
  if (a.trace < 0) usage("--trace is required");
  if ((a.draw >= 0) != (a.steps > 0)) usage("--draw and --steps go together");
  if (a.draw >= 0 && a.trace != 0) usage("--draw is for --trace 0");
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double get(const Values& v, const std::string& key) {
  const auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

std::vector<double> column(const std::vector<Step>& steps, const std::string& key) {
  std::vector<double> out;
  for (const auto& s : steps) out.push_back(get(s.layer, key));
  return out;
}

double total(const std::vector<Step>& steps, const std::string& key) {
  double t = 0.0;
  for (const auto& s : steps) t += get(s.layer, key);
  return t;
}

std::vector<double> seconds(const std::vector<Step>& steps) {
  std::vector<double> out;
  for (const auto& s : steps) out.push_back(s.seconds);
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Steps, failures and the worst result error over every checked step.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double worst_err = 0.0;
  std::vector<std::string> failures;

  void add(const Session& s) {
    auto one = [&](const Step& st) {
      ++attempted;
      if (!st.ok) ++failed;
      worst_err = std::max(worst_err, get(st.layer, "result_err"));
    };
    one(s.warmup);
    for (const auto& st : s.steps) one(st);
    // A failed end-of-run check fails the last step.
    if (!s.end_ok && (s.steps.empty() ? s.warmup.ok : s.steps.back().ok)) ++failed;
    failures.insert(failures.end(), s.failures.begin(), s.failures.end());
  }
};

/// What one draw, run in a process of its own, reports back.
struct Draw {
  std::size_t size = 0;
  double tolerance = 0.0;
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
  Tally tally;
  std::vector<double> step_s, step_cpu_s;
};

/// Steps to fill `seconds` at `step_s` each, at least kMinSteps; a smoke
/// run takes 2.
int stepsFor(double seconds, double step_s, const Args& a) {
  if (a.smoke) return 2;
  const double want = seconds / std::max(step_s, 1e-6);
  return std::max(kMinSteps, static_cast<int>(std::ceil(want)));
}

/// The seed of draw `r`: distinct for every (seed, r).
std::uint64_t drawSeed(std::uint64_t seed, int r) {
  return seed * kRealizations + static_cast<std::uint64_t>(r);
}

/// This process's resident-memory high-water mark (VmHWM), MiB.
double peakRssMib() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

void printMetric(const Metric& m, const char* note = "") {
  std::printf("  %-30s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit, note);
}

/// Print the failures and the result line. A metric that is not a
/// finite number makes the run incorrect (and reads 0 in the JSON).
void printResult(const Tally& t, const std::vector<Metric>& metrics) {
  bool correct = t.failed == 0;
  for (const auto& f : t.failures) std::printf("  FAILED: %s\n", f.c_str());
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("  FAILED: %s is not a finite number\n", m.name.c_str());
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// --draw: run one draw and print its raw figures, one per line, for
/// endToEnd() to read back:
///   draw <size> <tolerance> <setup_s> <peak_rss_mib> <attempted> <failed> <worst_err>
///   step <wall s> <cpu s>      (one per timed step)
///   fail <diagnostic>          (first few failures)
int drawMain(const Args& a, std::size_t n) {
  const auto w = a.workload->make(n, drawSeed(a.seed, a.draw));
  const Session s = w->run(RunSpec{a.steps, 2, 2, {}, a.scratch});
  Tally t;
  t.add(s);
  std::printf("draw %zu %.17g %.17g %.17g %llu %llu %.17g\n", w->size(), w->tolerance(),
              s.setup_s, peakRssMib(), static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), t.worst_err);
  for (const auto& st : s.steps) std::printf("step %.17g %.17g\n", st.seconds, st.cpu_seconds);
  for (const auto& f : t.failures) std::printf("fail %s\n", f.c_str());
  return 0;
}

/// Run draw `r` for `steps` timed steps in a fresh process of this
/// program, wait for it, and parse what it printed.
Draw spawnDraw(const Args& a, int r, int steps) {
  std::vector<std::string> args = {"/proc/self/exe",
                                    "--workload", a.workload->name,
                                    "--seed", std::to_string(a.seed),
                                    "--seconds", std::to_string(a.seconds),
                                    "--trace", "0",
                                    "--scratch", a.scratch,
                                    "--draw", std::to_string(r),
                                    "--steps", std::to_string(steps)};
  if (a.smoke) args.emplace_back("--smoke");
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe() failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, out[0]);
  posix_spawn_file_actions_addclose(&fa, out[1]);
  std::fflush(stdout);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(out[1]);
  std::string text;
  if (rc == 0) {
    char buf[4096];
    ssize_t got;
    while ((got = read(out[0], buf, sizeof buf)) > 0 || (got < 0 && errno == EINTR)) {
      if (got > 0) text.append(buf, static_cast<std::size_t>(got));
    }
  }
  close(out[0]);
  if (rc != 0) throw std::runtime_error("cannot start draw " + std::to_string(r));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("draw " + std::to_string(r) + " failed");
  }

  Draw d;
  bool have_head = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "draw") {
      in >> d.size >> d.tolerance >> d.setup_s >> d.peak_rss_mib >> d.tally.attempted >>
          d.tally.failed >> d.tally.worst_err;
      have_head = !in.fail();
    } else if (kind == "step") {
      double wall = 0.0, cpu = 0.0;
      in >> wall >> cpu;
      if (in.fail()) throw std::runtime_error("draw " + std::to_string(r) + ": bad step line");
      d.step_s.push_back(wall);
      d.step_cpu_s.push_back(cpu);
    } else if (kind == "fail") {
      std::string why;
      std::getline(in >> std::ws, why);
      d.tally.failures.push_back(why);
    }
  }
  if (!have_head || static_cast<int>(d.step_s.size()) != steps) {
    throw std::runtime_error("draw " + std::to_string(r) + " printed no result");
  }
  return d;
}

int endToEnd(const Args& a) {
  Tally tally;
  std::vector<double> setups, step_s, step_cpu_s;
  double loop_s = 0.0, loop_cpu_s = 0.0, peak_sum = 0.0;
  std::size_t size = 0;
  double tolerance = 0.0;
  for (int r = 0; r < kRealizations; ++r) {
    // The first draw runs kMinSteps; the rest share what is left of
    // --seconds at the step time seen so far.
    const double left = static_cast<double>(a.seconds) - loop_s;
    const int steps =
        r == 0 ? stepsFor(0.0, 1.0, a)
               : stepsFor(left / (kRealizations - r),
                          loop_s / static_cast<double>(step_s.size()), a);
    const Draw d = spawnDraw(a, r, steps);
    size = d.size;
    tolerance = d.tolerance;
    setups.push_back(d.setup_s);
    peak_sum += d.peak_rss_mib;
    tally.attempted += d.tally.attempted;
    tally.failed += d.tally.failed;
    tally.worst_err = std::max(tally.worst_err, d.tally.worst_err);
    tally.failures.insert(tally.failures.end(), d.tally.failures.begin(),
                          d.tally.failures.end());
    for (std::size_t i = 0; i < d.step_s.size(); ++i) {
      step_s.push_back(d.step_s[i]);
      step_cpu_s.push_back(d.step_cpu_s[i]);
      loop_s += d.step_s[i];
      loop_cpu_s += d.step_cpu_s[i];
    }
  }

  const double particle_steps =
      static_cast<double>(size) * static_cast<double>(step_s.size());
  const auto [tail_s, tail_pct] = tail(step_s, kTailBeyond);
  // Gated (the result line): steady on a shared host.
  const std::vector<Metric> metrics = {
      {"step_cpu_s.p50", median(step_cpu_s), "s"},
      {"step_cpu_s.tail", tail(step_cpu_s, kTailBeyond).first, "s"},
      {"particle_steps_per_cpu_s", ratio(particle_steps, loop_cpu_s), "1/s"},
      {"setup_s", median(setups), "s"},
      // A mean: the peak of some draws sits ~20% above the rest (disk-collision),
      // and a median of six jumps between the two levels from run to run.
      {"peak_rss_mib", peak_sum / kRealizations, "MiB"},
  };
  // Printed only: they move with the host's load (see the top of the file).
  const std::vector<Metric> wall = {
      {"step_s.p50", median(step_s), "s"},
      {"step_s.tail", tail_s, "s"},
      {"particle_steps_per_s", ratio(particle_steps, loop_s), "1/s"},
  };
  std::printf("%s: N=%zu, %zu timed steps over %d draws, 2 procs x 2 workers, "
              "seed %llu\n",
              a.workload->name, size, step_s.size(), kRealizations,
              static_cast<unsigned long long>(a.seed));
  char tail_note[64];
  std::snprintf(tail_note, sizeof tail_note, "(p%.1f of %zu steps)", tail_pct,
                step_s.size());
  for (const auto& m : wall) printMetric(m, m.name == "step_s.tail" ? tail_note : "");
  for (const auto& m : metrics) printMetric(m, m.name == "step_cpu_s.tail" ? tail_note : "");
  char tol_note[64];
  std::snprintf(tol_note, sizeof tol_note, "(tolerance %g)", tolerance);
  printMetric({"result_err", tally.worst_err, "1"}, tol_note);
  printMetric({"fail_frac", ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted)), "1"});
  printResult(tally, metrics);
  return 0;
}

/// The step-boundary snapshot of the rts.queue_depth histogram, summed
/// over the traced steps, as a 99th percentile (the bucket's upper bound).
double queueDepthP99(const std::vector<Step>& steps,
                     const paratreet::obs::MetricsRegistry& reg) {
  const auto* h = reg.findHistogram("rts.queue_depth");
  if (h == nullptr) return 0.0;
  const auto& bounds = h->bounds();
  std::vector<double> counts(bounds.size() + 1, 0.0);
  double all = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = total(steps, "rts.queue_depth#" + std::to_string(b));
    all += counts[b];
  }
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= 0.99 * all && all > 0.0) return bounds[std::min(b, bounds.size() - 1)];
  }
  return 0.0;
}

int perLayer(const Args& a, std::size_t n) {
  // Constructed before any Runtime of this run, so both outlive every
  // worker that might still write into them.
  paratreet::obs::MetricsRegistry registry;
  paratreet::obs::TraceBuffer trace;

  const auto made = a.workload->make(n, drawSeed(a.seed, 0));
  Workload& w = *made;
  RunSpec spec{0, 2, 2, {}, a.scratch};
  Tally tally;
  const Session probe = w.run(spec);
  tally.add(probe);
  // The untraced and the traced loop get half of --seconds each, sized
  // by the warm-up step and then by the untraced steps.
  const double half = 0.5 * static_cast<double>(a.seconds);
  spec.steps = stepsFor(half, probe.warmup.seconds, a);
  const Session plain = w.run(spec);
  tally.add(plain);
  RunSpec traced_spec = spec;
  traced_spec.steps = stepsFor(half, median(seconds(plain.steps)), a);
  traced_spec.sinks = Sinks{&registry, &trace};
  Session traced = w.run(traced_spec);
  tally.add(traced);
  RunSpec serial_spec{a.smoke ? 1 : 2, 1, 1, {}, a.scratch};
  const Session serial = w.run(serial_spec);
  tally.add(serial);

  auto& st = traced.steps;
  for (auto& s : st) {
    // Driver::run flushes out of the benchmark's reach: there the flush
    // is what a step spends outside the hooks, the checkpoint and the build.
    if (s.layer.count("span.driver.traversal") != 0) {
      s.layer["span.decomp.flush"] =
          s.seconds - get(s.layer, "span.driver.traversal") -
          get(s.layer, "span.driver.post_traversal") -
          get(s.layer, "checkpoint.seconds") - get(s.layer, "phase.build");
    }
    double idle_ns = 0.0;
    for (const auto& [k, v] : s.layer) {
      if (k.size() > 8 && k.compare(k.size() - 8, 8, ".idle_ns") == 0) idle_ns += v;
    }
    s.layer["idle_ns"] = idle_ns;
  }
  auto med = [&](const std::string& key) { return median(column(st, key)); };
  auto sum = [&](const std::string& key) { return total(st, key); };
  double wall = 0.0, paused = 0.0;
  for (const auto& s : st) {
    wall += s.seconds;
    paused += s.paused;
  }
  const double workers = static_cast<double>(spec.procs * spec.workers);
  const double traverse_s = sum("phase.traverse");
  const double plain_p50 = median(seconds(plain.steps));
  const double traced_p50 = median(seconds(st));
  constexpr double kMiB = 1024.0 * 1024.0;
  // Workers idle through the verification pause, when nothing runs.
  const double idle_s = std::max(0.0, sum("idle_ns") * 1e-9 - workers * paused);
  std::vector<double> kernel_drain;
  for (const auto& s : st) {
    kernel_drain.push_back(get(s.layer, "kernel.overlap_seconds") +
                           get(s.layer, "kernel.finish_drain_seconds"));
  }

  const auto plain_tail = tail(seconds(plain.steps), kTailBeyond).first;
  double plain_wall = 0.0;
  for (const auto& s : plain.steps) plain_wall += s.seconds;

  const std::vector<Metric> metrics = {
      {"step_s.p50", plain_p50, "s"},
      {"step_s.tail", plain_tail, "s"},
      {"particle_steps_per_s",
       ratio(static_cast<double>(w.size()) * static_cast<double>(plain.steps.size()),
             plain_wall),
       "1/s"},
      {"decomp.flush_s", med("span.decomp.flush"), "s"},
      {"decomp.decompose_s", med("phase.decompose"), "s"},
      {"decomp.histogram_s", med("decompose.histogram_seconds"), "s"},
      {"decomp.scatter_s", med("decompose.scatter_seconds"), "s"},
      {"tree.build_s", med("phase.build"), "s"},
      {"tree.leaf_share_s", med("phase.leaf_share"), "s"},
      {"tree.split_buckets", med("split_buckets"), "count"},
      {"traversal.s", med("phase.traverse"), "s"},
      {"traversal.pp", med("traversal.interactions.pp"), "count"},
      {"traversal.pn", med("traversal.interactions.pn"), "count"},
      {"traversal.gpairs_per_s",
       ratio(sum("traversal.interactions.pp") + sum("traversal.interactions.pn"),
             traverse_s) * 1e-9,
       "Gpair/s"},
      {"traversal.flops_per_s", ratio(sum("traversal.flops_estimated"), traverse_s),
       "flop/s"},
      {"kernel.sealed_early_ratio",
       ratio(sum("kernel.sealed_early"), sum("kernel.sealed_total")), "1"},
      {"cache.requests", med("cache.misses"), "count"},
      {"cache.nodes_inserted", med("cache.nodes_inserted"), "count"},
      {"cache.kib_received", med("cache.bytes_received") / 1024.0, "KiB"},
      {"cache.pauses", med("cache.pauses"), "count"},
      {"cache.hit_ratio",
       ratio(sum("cache.hits"), sum("cache.hits") + sum("cache.misses")), "1"},
      {"cache.shared_waits", med("cache.shared_waits"), "count"},
      {"rts.tasks", med("rts.tasks_executed"), "count"},
      {"rts.messages", med("rts.messages"), "count"},
      {"rts.message_kib", med("rts.message_bytes") / 1024.0, "KiB"},
      {"rts.queue_depth.p99", queueDepthP99(st, registry), "count"},
      {"rts.idle_frac", ratio(idle_s, workers * wall), "1"},
      {"rts.parallel_eff", ratio(median(seconds(serial.steps)), workers * plain_p50), "1"},
      {"rts.retries", sum("rts.retries"), "count"},
      {"rts.undeliverable", sum("rts.undeliverable"), "count"},
      {"rts.frames_corrupt", sum("rts.frames_corrupt"), "count"},
      {"rts.dup_suppressed", sum("rts.dup_suppressed"), "count"},
      {"checkpoint.mib", med("checkpoint.bytes") / kMiB, "MiB"},
      {"checkpoint.disk_mib", med("checkpoint.disk_bytes") / kMiB, "MiB"},
      {"checkpoint.persist_mib_per_s",
       ratio(sum("checkpoint.disk_bytes") / kMiB, sum("checkpoint.disk_seconds")),
       "MiB/s"},
      {"checkpoint.at_rest_mib", get(traced.end, "checkpoint.at_rest_mib"), "MiB"},
      {"trace.overhead_frac", ratio(traced_p50, plain_p50) - 1.0, "1"},
      {"trace.dropped", static_cast<double>(trace.dropped()), "count"},
      {"result_err", tally.worst_err, "1"},
      {"fail_frac",
       ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
       "1"},
  };

  std::printf("%s: N=%zu, traced run of %zu steps (untraced p50 %.6g s, traced p50 "
              "%.6g s, 1x1 p50 %.6g s), seed %llu\n",
              a.workload->name, w.size(), st.size(), plain_p50, traced_p50,
              median(seconds(serial.steps)), static_cast<unsigned long long>(a.seed));
  // Times of layers that only some workloads run (or that only a
  // non-default setting runs) read exactly 0 elsewhere, run after run, so
  // they are printed but not part of the result line.
  const std::vector<Metric> where_run = {
      {"traversal.gravity_s", med("span.traversal.gravity"), "s"},
      {"traversal.knn_s", med("knn_s"), "s"},
      {"traversal.collision_s", med("span.traversal.collision"), "s"},
      {"kernel.record_s", med("kernel.record_seconds"), "s"},
      {"kernel.drain_s", median(kernel_drain), "s"},
      {"cache.lock_wait_ms", med("cache.lock_wait_ns") * 1e-6, "ms"},
      {"checkpoint.s", med("checkpoint.seconds"), "s"},
      {"checkpoint.disk_s", med("checkpoint.disk_seconds"), "s"},
  };
  std::printf("per-layer metrics (per step unless a count of the run):\n");
  for (const auto& m : metrics) {
    printMetric(m, m.name == "traversal.flops_per_s" ? "(computed from flop estimates)" : "");
  }
  std::printf("layer times where the layer runs (0 elsewhere; not in the result line):\n");
  for (const auto& m : where_run) printMetric(m);
  const auto events = trace.snapshot();
  std::printf("spans (self time = span - child spans):\n");
  std::printf("  %-24s %6s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, t] : selfTimes(events)) {
    std::printf("  %-24s %6zu %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                t.self_s);
  }
  if (!a.chrome_trace.empty()) {
    if (writeChromeTrace(a.chrome_trace, events)) {
      std::printf("chrome trace: %s (%zu spans)\n", a.chrome_trace.c_str(),
                  events.size());
    } else {
      tally.failures.push_back("cannot write " + a.chrome_trace);
      ++tally.failed;
    }
  }
  printResult(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  const std::size_t n = a.smoke ? a.workload->n / 10 : a.workload->n;
  try {
    if (a.draw >= 0) return drawMain(a, n);
    return a.trace == 1 ? perLayer(a, n) : endToEnd(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s: %s\n", a.workload->name, e.what());
    return 1;
  }
}
