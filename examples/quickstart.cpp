// Quickstart: the smallest complete ParaTreeT program.
//
// Defines a Data (per-node summary), a Visitor (traversal actions), builds
// the distributed forest over random particles, runs one traversal, and
// reads the results back. This mirrors Section II of the paper: the user
// writes ~40 lines; decomposition, tree build, caching and parallelism
// are the library's business.
//
// Usage: quickstart [n_particles] [n_procs] [workers_per_proc]
//                    [--metrics-out=<file>] [--chaos-seed=<n>]
//                    [--fault-drop=<p>] [--transport=inproc|tcp]
//                    [--checkpoint-every=K] [--checkpoint-dir=<path>]
//                    [--checkpoint-keep=K] [--resume] [--fault-torn-write]
//
// --metrics-out enables the observability layer (metrics registry, trace
// buffer, activity profiler) and writes its JSON report to <file>
// ("-" = stdout); see README "Observability" for the schema.
//
// --chaos-seed / --fault-drop inject a seeded schedule of transport
// faults (drops, duplicates, delays); the runtime's reliable-delivery
// layer must still produce the same answer. See README "Resilience".

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench/bench_util.hpp"
#include "core/driver.hpp"
#include "observability/report.hpp"
#include "rts/reliable.hpp"

using namespace paratreet;

// --- 1. The Data abstraction: what each tree node summarizes. -------------
// Here: total mass and particle count of the subtree.
struct MassData {
  double mass = 0.0;
  int count = 0;

  MassData() = default;
  MassData(const Particle* particles, int n) {
    for (int i = 0; i < n; ++i) mass += particles[i].mass;
    count = n;
  }
  MassData& operator+=(const MassData& child) {
    mass += child.mass;
    count += child.count;
    return *this;
  }
};

// --- 2. The Visitor abstraction: what the traversal does. -----------------
// Counts, for every particle, how much mass lies within `radius` of it —
// pruning whole subtrees that are certainly outside or inside the ball.
struct MassInBallVisitor {
  double radius = 0.1;

  bool open(const SpatialNode<MassData>& source,
            SpatialNode<MassData>& target) const {
    // Descend only if the node straddles some target particle's ball.
    for (int i = 0; i < target.n_particles; ++i) {
      const Vec3 pos = target.particle(i).position;
      const double d2 = source.box.distanceSquared(pos);
      if (d2 < radius * radius &&
          source.box.farthestDistanceSquared(pos) > radius * radius) {
        return true;
      }
    }
    // Fully inside or fully outside for every target: summarize in node().
    return false;
  }

  void node(const SpatialNode<MassData>& source,
            SpatialNode<MassData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      if (source.box.farthestDistanceSquared(p.position) <= radius * radius) {
        p.density += source.data.mass;  // whole subtree inside the ball
      }
    }
  }

  void leaf(const SpatialNode<MassData>& source,
            SpatialNode<MassData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      Particle& p = target.particle(i);
      for (int j = 0; j < source.n_particles; ++j) {
        if (distanceSquared(p.position, source.particle(j).position) <=
            radius * radius) {
          p.density += source.particle(j).mass;
        }
      }
    }
  }
};

int main(int argc, char** argv) {
  // Strip the optional flags (shared bench::ArgParser) before positionals.
  bench::ArgParser args(argc, argv);
  const std::string metrics_out = args.metricsOut();
  const bool metrics_enabled = !metrics_out.empty();
  const rts::FaultConfig fault = args.chaos();
  const rts::TransportConfig transport = args.transport();
  // The shared checkpoint/resume flags parse here too, so every bundled
  // binary speaks one CLI; this Forest-direct example doesn't run the
  // Driver's checkpoint loop, but the values are still validated below
  // (out-of-range --checkpoint-keep etc. is rejected, not ignored).
  Configuration ckpt_flags;
  args.checkpointInto(ckpt_flags);
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10000;
  const int procs = argc > 2 ? std::atoi(argv[2]) : 2;
  const int workers = argc > 3 ? std::atoi(argv[3]) : 2;

  // --- 3. Configure and run. ----------------------------------------------
  rts::Runtime::Config rt_config;
  rt_config.n_procs = procs;
  rt_config.workers_per_proc = workers;
  rt_config.fault = fault;
  rt_config.transport = transport;
  rts::Runtime rt(rt_config);
  Configuration conf;
  conf.transport = transport;
  conf.tree_type = TreeType::eOct;
  conf.decomp_type = DecompType::eSfc;  // SFC partitions + octree subtrees
  conf.min_partitions = 4 * procs * workers;
  conf.min_subtrees = 2 * procs;
  conf.bucket_size = 12;
  conf.fault = fault;
  conf.checkpoint_every = ckpt_flags.checkpoint_every;
  conf.checkpoint_dir = ckpt_flags.checkpoint_dir;
  conf.checkpoint_keep = ckpt_flags.checkpoint_keep;
  conf.resume = ckpt_flags.resume;
  conf.fault.torn_write = ckpt_flags.fault.torn_write;
  if (auto err = conf.validate(); !err.empty()) {
    std::fprintf(stderr, "quickstart: %s\n", err.c_str());
    return 2;
  }

  // One Observability bundle owns the profiler + metrics + trace buffer;
  // the library takes a non-owning Instrumentation handle (all-null when
  // metrics are off, which makes every probe a no-op).
  Observability ob;
  const Instrumentation instr = metrics_enabled ? ob.handle()
                                                : Instrumentation{};
  if (instr.metrics != nullptr) rt.attachMetrics(instr.metrics);
  if (instr.trace != nullptr) rt.attachTrace(instr.trace);

  Forest<MassData, OctTreeType> forest(rt, conf, instr);
  forest.load(makeParticles(uniformCube(n, /*seed=*/2024)));
  forest.decompose();
  forest.build();
  forest.traverse<MassInBallVisitor>(MassInBallVisitor{0.1});

  // --- 4. Read results back. ----------------------------------------------
  double mean = 0.0;
  for (const auto& p : forest.collect()) mean += p.density;
  mean /= static_cast<double>(n);

  // Uniform unit-mass cube: a ball of r=0.1 holds ~ (4/3)pi r^3 of mass.
  std::printf("particles:          %zu\n", n);
  std::printf("procs x workers:    %d x %d\n", procs, workers);
  std::printf("partitions:         %d\n", forest.numPartitions());
  std::printf("subtrees:           %d\n", forest.numSubtrees());
  std::printf("mean mass in ball:  %.6f (analytic ~%.6f)\n", mean,
              4.0 / 3.0 * 3.14159265 * 0.001);
  const auto stats = forest.cacheStatsTotal();
  std::printf("cache fetches:      %llu (%llu bytes)\n",
              static_cast<unsigned long long>(stats.requests_sent),
              static_cast<unsigned long long>(stats.bytes_received));
  if (const auto* inj = rt.faultInjector()) {
    std::printf("injected faults:   ");
    const auto counts = inj->counts();
    for (std::size_t k = 0; k < rts::kNumFaultKinds; ++k) {
      std::printf(" %s=%llu", rts::kFaultKindNames[k],
                  static_cast<unsigned long long>(counts[k]));
    }
    std::printf("\n");
    if (const auto* rel = rt.reliableLayer()) {
      std::printf("reliable delivery:  retries=%llu dup_suppressed=%llu "
                  "undeliverable=%llu\n",
                  static_cast<unsigned long long>(rel->retries()),
                  static_cast<unsigned long long>(rel->duplicatesSuppressed()),
                  static_cast<unsigned long long>(rel->undeliverable()));
    }
  }

  if (metrics_enabled) {
    rt.attachMetrics(nullptr);  // quiesce before the registry goes away
    rt.attachTrace(nullptr);
    try {
      obs::Reporter(ob.handle()).writeJson(metrics_out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-out: %s\n", e.what());
      return 1;
    }
    if (metrics_out != "-" && !metrics_out.empty()) {
      std::printf("metrics report:     %s\n", metrics_out.c_str());
    }
  }
  return 0;
}
