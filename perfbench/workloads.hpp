#pragma once

// The four workloads of the step-loop benchmark. Each fixes its problem —
// distribution, N, physics, procs x workers, transport, checkpoint
// cadence — and leaves every tuning knob (bucket size, partitions,
// subtrees, fetch depth, evaluation kernel, decomposition implementation)
// at the library default, so a better default shows here.
//
// Every workload is a closed step loop: a step starts only after the
// previous one has finished. run() sets the workload up (timed as set-up,
// together with the warm-up step), then runs `steps` timed steps. Each
// step's results are checked against a brute-force reference while the
// step clock is paused.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/collision/collision.hpp"
#include "apps/gravity/gravity.hpp"
#include "apps/sph/sph.hpp"
#include "core/driver.hpp"
#include "core/forest.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace paratreet;

/// How one session runs.
struct RunSpec {
  int steps = 0;  ///< timed steps after the warm-up (0: a set-up sample)
  int procs = 2;
  int workers = 2;
  Sinks sinks;          ///< traced run only
  std::string scratch;  ///< directory for per-run temporaries
};

/// Particles sampled for the per-step brute-force check.
inline constexpr std::size_t kSample = 32;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Particles in the problem.
  virtual std::size_t size() const = 0;
  /// Largest result_err a correct step may show.
  virtual double tolerance() const = 0;
  virtual Session run(const RunSpec& spec) = 0;
};

template <typename F>
Values phaseValues(const F& forest) {
  const auto& t = forest.phaseTimes();
  return {{"phase.decompose", t.decompose},
          {"phase.build", t.build},
          {"phase.leaf_share", t.leaf_share},
          {"phase.traverse", t.traverse}};
}

template <typename F>
void kickDrift(F& forest, double dt) {
  forest.forEachParticle([dt](Particle& p) {
    p.velocity += p.acceleration * dt;
    p.position += p.velocity * dt;
  });
}

inline void record(Recorder& rec, const Check& c) {
  rec.add("result_err", c.err);
  if (!c.ok) rec.fail(c.why);
}

/// Same Plummer physics for gravity-plummer and gravity-durable-tcp.
inline constexpr GravityParams kPlummerGravity{0.7, 1e-3, 1.0, true};
inline constexpr double kPlummerDt = 1e-3;
/// Over 60000 particles at theta 0.7 the worst error is 7.3e-3; at theta
/// 1.0 one particle in a hundred exceeds 2.3e-2, so a looser opening
/// criterion fails the check.
inline constexpr double kPlummerTolerance = 0.02;

inline void checkPlummerStep(Recorder& rec, const std::vector<Particle>& ps,
                             std::size_t n, const std::vector<std::size_t>& sample) {
  Check c;
  checkIntact(ps, n, c);
  if (c.ok) {
    checkGravity(ps, sample, kPlummerGravity.G, kPlummerGravity.softening,
                 kPlummerTolerance, c);
  }
  record(rec, c);
}

/// gravity-plummer: Barnes-Hut on a Plummer sphere, kick-drift, inproc.
class GravityPlummer : public Workload {
 public:
  GravityPlummer(std::size_t n, std::uint64_t seed)
      : particles_(makeParticles(plummer(n, seed, 0.25))),
        sample_(sampleIndexes(n, kSample, seed + 101)) {}

  std::size_t size() const override { return particles_.size(); }
  double tolerance() const override { return kPlummerTolerance; }

  Session run(const RunSpec& spec) override {
    auto particles = particles_;
    Recorder rec(spec.sinks);
    rec.begin();
    rts::Runtime rt({spec.procs, spec.workers});
    if (spec.sinks.metrics != nullptr) rt.attachMetrics(spec.sinks.metrics);
    Forest<CentroidData, OctTreeType> forest(
        rt, Configuration{}, Instrumentation{nullptr, spec.sinks.metrics, nullptr});
    rec.setProbe([&] { return phaseValues(forest); });
    forest.load(std::move(particles));
    forest.decompose();
    for (int s = 0; s <= spec.steps; ++s) {
      rec.stepBegin();
      rec.layer("tree.build", [&] { forest.build(); });
      rec.add("split_buckets", static_cast<double>(forest.splitBucketCount()));
      rec.layer("traversal.gravity",
                [&] { forest.traverse(GravityVisitor{kPlummerGravity}); });
      rec.pause();
      checkPlummerStep(rec, forest.collect(), size(), sample_);
      rec.resume();
      rec.layer("integrate", [&] { kickDrift(forest, kPlummerDt); });
      rec.layer("decomp.flush", [&] { forest.flush(); });
      rec.stepEnd();
    }
    return rec.take();
  }

 private:
  std::vector<Particle> particles_;
  std::vector<std::size_t> sample_;
};

/// Clustered gas: 8 equal Plummer clusters of scale 0.05 in the unit box.
/// Unlike clustered(n, seed, 8, 0.05), the cluster centres come from one
/// fixed draw and only the particles from `seed`: where the centres fall
/// sets the partitions' load balance, which moved the step time by tens
/// of percent from seed to seed.
inline InitialConditions clusteredGas(std::size_t n, std::uint64_t seed) {
  constexpr std::size_t kClusters = 8;
  Rng layout(1);
  InitialConditions ic;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const Vec3 centre{layout.uniform(-0.4, 0.4), layout.uniform(-0.4, 0.4),
                      layout.uniform(-0.4, 0.4)};
    const std::size_t count = n / kClusters + (c < n % kClusters ? 1 : 0);
    const auto part = plummer(count, seed * kClusters + c, 0.05,
                              static_cast<double>(count) / static_cast<double>(n));
    for (std::size_t i = 0; i < count; ++i) {
      ic.positions.push_back(centre + part.positions[i]);
      ic.velocities.push_back(part.velocities[i]);
      ic.masses.push_back(part.masses[i]);
    }
  }
  return ic;
}

/// sph-clustered: kNN density pass + pressure-force pass on clustered gas.
/// Positions stay fixed, so every step repeats the same search.
class SphClustered : public Workload {
 public:
  static constexpr int kNeighbors = 32;

  SphClustered(std::size_t n, std::uint64_t seed)
      : particles_(makeParticles(clusteredGas(n, seed))),
        sample_(sampleIndexes(n, kSample, seed + 202)) {}

  std::size_t size() const override { return particles_.size(); }
  /// kNN is exact: the k-th distance must match bit for bit.
  double tolerance() const override { return 0.0; }

  Session run(const RunSpec& spec) override {
    auto particles = particles_;
    Recorder rec(spec.sinks);
    rec.begin();
    rts::Runtime rt({spec.procs, spec.workers});
    if (spec.sinks.metrics != nullptr) rt.attachMetrics(spec.sinks.metrics);
    Forest<SphData, OctTreeType> forest(
        rt, Configuration{}, Instrumentation{nullptr, spec.sinks.metrics, nullptr});
    rec.setProbe([&] { return phaseValues(forest); });
    forest.load(std::move(particles));
    forest.decompose();
    SphParams params;
    params.k_neighbors = kNeighbors;
    SphSolver<SphData, OctTreeType> solver(forest, params);
    for (int s = 0; s <= spec.steps; ++s) {
      rec.stepBegin();
      rec.layer("tree.build", [&] { forest.build(); });
      rec.add("split_buckets", static_cast<double>(forest.splitBucketCount()));
      SphFields fields;
      const double knn0 = forest.phaseTimes().traverse;
      rec.layer("sph.density_pass", [&] { fields = solver.densityPass(); });
      rec.add("knn_s", forest.phaseTimes().traverse - knn0);
      rec.layer("sph.force_pass", [&] { solver.forcePass(fields); });
      rec.pause();
      {
        const auto ps = forest.collect();
        Check c;
        checkIntact(ps, size(), c);
        if (c.ok) checkKnn(ps, sample_, kNeighbors, tolerance(), c);
        record(rec, c);
      }
      rec.resume();
      rec.layer("decomp.flush", [&] { forest.flush(); });
      rec.stepEnd();
    }
    return rec.take();
  }

 private:
  std::vector<Particle> particles_;
  std::vector<std::size_t> sample_;
};

/// disk-collision: the Section IV planetesimal disk on the longest-dimension
/// tree and decomposition — gravity plus swept-sphere collision detection
/// each step, kick-drift, flush. Bodies are not merged, so N stays fixed.
class DiskCollision : public Workload {
 public:
  static constexpr double kDt = 0.01;  // years

  DiskCollision(std::size_t n, std::uint64_t seed)
      : particles_(makeParticles(planetesimalDisk(n, seed))),
        sample_(sampleIndexes(particles_.size(), kSample, seed + 303)) {
    gravity_.G = kGravAuMsunYr;
    gravity_.softening = 1e-5;
  }

  std::size_t size() const override { return particles_.size(); }
  double tolerance() const override { return 1e-5; }

  Session run(const RunSpec& spec) override {
    auto particles = particles_;
    Recorder rec(spec.sinks);
    rec.begin();
    rts::Runtime rt({spec.procs, spec.workers});
    if (spec.sinks.metrics != nullptr) rt.attachMetrics(spec.sinks.metrics);
    Configuration conf;
    conf.tree_type = TreeType::eLongest;
    conf.decomp_type = DecompType::eLongest;
    Forest<CentroidData, LongestDimTreeType> forest(
        rt, conf, Instrumentation{nullptr, spec.sinks.metrics, nullptr});
    rec.setProbe([&] { return phaseValues(forest); });
    forest.load(std::move(particles));
    forest.decompose();
    for (int s = 0; s <= spec.steps; ++s) {
      rec.stepBegin();
      rec.layer("tree.build", [&] { forest.build(); });
      rec.add("split_buckets", static_cast<double>(forest.splitBucketCount()));
      rec.layer("traversal.gravity",
                [&] { forest.traverse(GravityVisitor{gravity_}); });
      rec.layer("traversal.collision",
                [&] { forest.traverse(CollisionVisitor{kDt}); });
      rec.pause();
      check(rec, forest.collect());
      rec.resume();
      rec.layer("integrate", [&] { kickDrift(forest, kDt); });
      rec.layer("decomp.flush", [&] { forest.flush(); });
      rec.stepEnd();
    }
    return rec.take();
  }

 private:
  void check(Recorder& rec, const std::vector<Particle>& ps) const {
    Check c;
    checkIntact(ps, size(), c);
    if (c.ok) {
      checkGravity(ps, sample_, gravity_.G, gravity_.softening, tolerance(), c);
      // The seeded sample, plus every body that reported a contact (up to
      // the same count), so a spurious contact cannot go unchecked.
      auto bodies = sample_;
      for (std::size_t i = 0; i < ps.size() && bodies.size() < 2 * kSample; ++i) {
        if (ps[i].collision_partner >= 0) bodies.push_back(i);
      }
      checkContacts(ps, bodies, kDt, c);
    }
    record(rec, c);
  }

  std::vector<Particle> particles_;
  std::vector<std::size_t> sample_;
  GravityParams gravity_{};
};

/// Bytes of every regular file under `dir`.
inline std::uintmax_t bytesUnder(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// A fresh directory from a mkdtemp(3) template, removed with its contents
/// when the owner goes out of scope (a run that throws included).
struct TempDir {
  explicit TempDir(std::string templ) : path(std::move(templ)) {
    if (mkdtemp(path.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory from " + path);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// gravity-durable-tcp: the gravity-plummer physics through the Driver,
/// ranks as forked processes over TCP, a durable checkpoint every step
/// into a fresh directory. Driver::run owns the step loop; its hooks
/// mark the step boundaries, so a timed step runs from one traversal()
/// hook to the next: traversal, integration, checkpoint, flush and the
/// next build. A final iteration only closes the last timed step.
class GravityDurableTcp : public Workload {
 public:
  GravityDurableTcp(std::size_t n, std::uint64_t seed)
      : particles_(makeParticles(plummer(n, seed, 0.25))),
        sample_(sampleIndexes(n, kSample, seed + 404)) {}

  std::size_t size() const override { return particles_.size(); }
  double tolerance() const override { return kPlummerTolerance; }

  Session run(const RunSpec& spec) override {
    auto particles = particles_;
    const TempDir dir(spec.scratch + "/ckpt-XXXXXX");
    Recorder rec(spec.sinks);
    {
      rec.begin();
      rts::Runtime::Config rc;
      rc.n_procs = spec.procs;
      rc.workers_per_proc = spec.workers;
      rc.transport = App::transport();
      rts::Runtime rt(rc);
      App app(rec, *this, spec.steps, dir.path);
      app.run(rt, std::move(particles),
              Instrumentation{nullptr, spec.sinks.metrics, nullptr});
      verifyDisk(rec, app, dir.path, spec.steps);
    }
    rec.session().end["checkpoint.at_rest_mib"] =
        static_cast<double>(bytesUnder(dir.path)) / (1024.0 * 1024.0);
    std::error_code ec;
    std::filesystem::remove_all(dir.path, ec);
    if (ec || std::filesystem::exists(dir.path)) {
      rec.failEnd("cannot remove checkpoint directory " + dir.path);
    }
    if (const auto kids = childPids().size(); kids != 0) {
      rec.failEnd(std::to_string(kids) + " rank process(es) outlived the run");
    }
    return rec.take();
  }

 private:
  class App : public Driver<CentroidData, OctTreeType> {
   public:
    App(Recorder& rec, const GravityDurableTcp& w, int steps, std::string dir)
        : rec_(rec), w_(w), steps_(steps), dir_(std::move(dir)) {}

    static rts::TransportConfig transport() {
      rts::TransportConfig t;
      t.kind = rts::TransportKind::kTcp;
      return t;
    }

    void configure(Configuration& conf) override {
      conf.num_iterations = steps_ + 2;
      conf.transport = transport();
      conf.checkpoint_every = 1;
      conf.checkpoint_dir = dir_;
    }

    void traversal(int iter) override {
      if (iter > 0) rec_.stepEnd();
      if (iter > steps_) return;
      if (iter == 0) rec_.setProbe([this] { return phaseValues(forest()); });
      rec_.stepBegin();
      rec_.add("split_buckets", static_cast<double>(forest().splitBucketCount()));
      rec_.layer("driver.traversal", [&] {
        rec_.layer("traversal.gravity",
                   [&] { startDown(GravityVisitor{kPlummerGravity}); });
      });
    }

    void postTraversal(int iter) override {
      if (iter > steps_) return;
      rec_.pause();
      checkPlummerStep(rec_, forest().collect(), w_.size(), w_.sample_);
      rec_.resume();
      rec_.layer("driver.post_traversal", [&] { kickDrift(forest(), kPlummerDt); });
    }

   private:
    Recorder& rec_;
    const GravityDurableTcp& w_;
    int steps_;
    std::string dir_;
  };

  /// The newest generation on disk must verify and be the last step.
  void verifyDisk(Recorder& rec, App& app, const std::string& dir, int steps) const {
    Configuration conf;
    app.configure(conf);
    rts::DurableStore store;
    rts::DurableStore::Options opts;
    opts.dir = dir;
    opts.keep = conf.checkpoint_keep;
    opts.config_hash = conf.compatibilityHash(size());
    try {
      store.open(std::move(opts));
      const auto got = store.loadNewestVerified();
      if (!got.has_value() || got->step != steps || got->generations_skipped != 0 ||
          got->particle_count != size()) {
        rec.failEnd("newest on-disk generation is not step " + std::to_string(steps) +
                    (got.has_value() ? ": " + got->diagnostic : ": none found"));
      }
    } catch (const std::exception& e) {
      rec.failEnd(std::string("on-disk generation fails verification: ") + e.what());
    }
  }

  std::vector<Particle> particles_;
  std::vector<std::size_t> sample_;
};

}  // namespace perfbench
