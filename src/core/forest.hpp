#pragma once

#include <atomic>
#include <cassert>
#include <fstream>
#include <stdexcept>
#include <string>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "core/dual_tree.hpp"
#include "core/load_balancer.hpp"
#include "core/partition.hpp"
#include "core/priority_traversal.hpp"
#include "core/subtree.hpp"
#include "core/traversal.hpp"
#include "decomp/decomposition.hpp"
#include "decomp/runtime_parallel.hpp"
#include "observability/instrumentation.hpp"
#include "rts/checkpoint.hpp"
#include "rts/profiler.hpp"
#include "rts/runtime.hpp"
#include "tree/tree_types.hpp"
#include "tree/validate.hpp"
#include "util/distributions.hpp"
#include "util/timer.hpp"

namespace paratreet {

/// Convert InitialConditions into framework particles.
inline std::vector<Particle> makeParticles(const InitialConditions& ic) {
  std::vector<Particle> ps(ic.size());
  for (std::size_t i = 0; i < ic.size(); ++i) {
    ps[i].position = ic.positions[i];
    ps[i].velocity = ic.velocities.empty() ? Vec3{} : ic.velocities[i];
    ps[i].mass = ic.masses.empty() ? 0.0 : ic.masses[i];
    ps[i].ball_radius = ic.radii.empty() ? 0.0 : ic.radii[i];
    ps[i].order = static_cast<std::int32_t>(i);
  }
  return ps;
}

/// Wall-clock spent in each phase of an iteration.
struct PhaseTimes {
  double decompose = 0.0;
  double build = 0.0;        ///< tree build + cache setup + leaf sharing
  double leaf_share = 0.0;   ///< subset of build: the leaf-sharing step
  double traverse = 0.0;

  PhaseTimes& operator+=(const PhaseTimes& o) {
    decompose += o.decompose;
    build += o.build;
    leaf_share += o.leaf_share;
    traverse += o.traverse;
    return *this;
  }
};

/// The distributed forest: Subtrees + Partitions + per-process caches,
/// bound to a Runtime. This is the engine under the user-facing Driver.
///
/// An iteration proceeds: decompose() -> build() -> traverse<V>() -> user
/// post-processing -> flush(). decompose() assigns particles to
/// Partitions (by the configured decomposition) and to Subtrees (by the
/// tree-consistent decomposition) *independently* — the
/// Partitions-Subtrees model. build() builds each Subtree's local tree,
/// assembles the replicated upper tree on every process, and shares leaf
/// buckets with Partitions, splitting only the buckets whose particles
/// span Partition boundaries (never root paths).
template <typename Data, typename TreeTypeT>
class Forest {
 public:
  Forest(rts::Runtime& rt, Configuration conf, Instrumentation instr = {})
      : rt_(rt), conf_(std::move(conf)), instr_(instr) {}

  const Instrumentation& instrumentation() const { return instr_; }

  const Configuration& config() const { return conf_; }
  rts::Runtime& runtime() { return rt_; }
  const OrientedBox& universe() const { return universe_; }
  int numPartitions() const { return static_cast<int>(partitions_.size()); }
  int numSubtrees() const { return static_cast<int>(subtrees_.size()); }
  Partition<Data>& partition(int i) {
    return *partitions_[static_cast<std::size_t>(i)];
  }
  Subtree<Data>& subtree(int i) { return *subtrees_[static_cast<std::size_t>(i)]; }
  CacheManager<Data>& cache(int proc) {
    return caches_[static_cast<std::size_t>(proc)];
  }
  const PhaseTimes& phaseTimes() const { return times_; }
  void resetPhaseTimes() { times_ = {}; }

  /// Buckets that had to be split across Partitions in the last build
  /// (the Fig 5 case).
  std::size_t splitBucketCount() const { return split_buckets_.load(); }

  /// Take ownership of the particle set.
  void load(std::vector<Particle> particles) {
    particles_ = std::move(particles);
  }
  std::size_t particleCount() const { return particles_.size(); }

  /// Assign every particle a Partition (load) and a Subtree (memory),
  /// then scatter particles to their Subtrees. The two decompositions are
  /// independent; the library optimizes placement so equal splitters
  /// colocate Partition i with Subtree i.
  ///
  /// The whole pipeline — box reduction, key assignment, splitter
  /// finding by iterative histogramming, and the scatter — runs chunked
  /// on the worker runtime. Its piece assignments are identical to the
  /// serial full-sort Decomposition::findSplitters() reference.
  void decompose() {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "decompose", "phase");
    // Chares are placed over the *live* ranks only: on a fault-free run
    // this is every rank (placeOf degenerates to the plain block map),
    // after a shrink recovery the dead ranks drop out.
    live_procs_ = rt_.liveProcs();
    if (live_procs_.empty()) {
      throw std::runtime_error("Forest::decompose: no live processes");
    }
    RuntimeParallelFor worker_par(rt_, live_procs_);
    const int chunks = std::max(1, worker_par.ways());
    const std::size_t n = particles_.size();

    // Chunked box reduction: partial boxes merge after quiescence
    // (grow() skips empty partials from empty chunks).
    universe_ = OrientedBox{};
    std::vector<OrientedBox> partial(static_cast<std::size_t>(chunks));
    worker_par.run(chunks, [&](int c) {
      const auto r = decomp::chunkOf(n, chunks, c);
      auto& box = partial[static_cast<std::size_t>(c)];
      for (std::size_t i = r.begin; i < r.end; ++i) {
        box.grow(particles_[i].position);
      }
    });
    for (const auto& box : partial) universe_.grow(box);
    // Pad so particles on the boundary stay strictly inside (keys clamp).
    const Vec3 pad = universe_.size() * 1e-9 + Vec3(1e-12);
    universe_.grow(universe_.greater_corner + pad);
    universe_.grow(universe_.lesser_corner - pad);
    worker_par.run(chunks, [&](int c) {
      const auto r = decomp::chunkOf(n, chunks, c);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        particles_[i].key = keys::mortonKey(particles_[i].position, universe_);
      }
    });

    partition_decomp_ = makeDecomposition(conf_.decomp_type);
    subtree_decomp_ = makeDecomposition(conf_.subtreeDecomp());
    int n_parts, n_subtrees;
    {
      WallTimer splitter_timer;
      obs::TraceSpan splitter_span(instr_.trace, "decompose.splitters",
                                   "phase");
      // Both decompositions count over the same keys, so the sorted
      // scratch (the expensive part) is built once and shared.
      decomp::SortedKeyScratch scratch(std::span<const Particle>(particles_),
                                       worker_par, chunks);
      n_parts = partition_decomp_->findSplittersHistogram(
          std::span<Particle>(particles_), universe_, conf_.min_partitions,
          Decomposition::Target::kPartition, worker_par,
          Decomposition::kSplitterProbes, &scratch);
      n_subtrees = subtree_decomp_->findSplittersHistogram(
          std::span<Particle>(particles_), universe_, conf_.min_subtrees,
          Decomposition::Target::kSubtree, worker_par,
          Decomposition::kSplitterProbes, &scratch);
      emitGauge("decompose.histogram_seconds", splitter_timer.seconds());
    }
    auto regions = subtree_decomp_->regions();
    assert(static_cast<int>(regions.size()) == n_subtrees);

    bool keep_placement =
        static_cast<int>(placement_override_.size()) == n_parts;
    // A measured-load placement naming a dead rank is stale; fall back to
    // block placement over the survivors.
    for (const int proc : placement_override_) {
      if (keep_placement && !rt_.rankAlive(proc)) keep_placement = false;
    }
    // Reuse the Partition objects when the count is stable (the common
    // steady state): their interaction lists, arena, and batch scratch
    // keep their warmed-up capacity across iterations instead of being
    // reallocated every flush()->decompose().
    if (static_cast<int>(partitions_.size()) != n_parts) {
      partitions_.clear();
      partitions_.reserve(static_cast<std::size_t>(n_parts));
      for (int i = 0; i < n_parts; ++i) {
        partitions_.push_back(std::make_unique<Partition<Data>>());
      }
    }
    for (int i = 0; i < n_parts; ++i) {
      auto& part = *partitions_[static_cast<std::size_t>(i)];
      part.index = i;
      part.home_proc = keep_placement
                           ? placement_override_[static_cast<std::size_t>(i)]
                           : placeOf(i, n_parts);
      part.clear();
    }
    if (!keep_placement) placement_override_.clear();
    subtrees_.clear();
    for (int i = 0; i < n_subtrees; ++i) {
      auto st = std::make_unique<Subtree<Data>>();
      st->index = i;
      st->home_proc = placeOf(i, n_subtrees);
      st->region = regions[static_cast<std::size_t>(i)];
      subtrees_.push_back(std::move(st));
    }
    {
      WallTimer scatter_timer;
      obs::TraceSpan scatter_span(instr_.trace, "decompose.scatter", "phase");
      scatterParallel(worker_par, chunks, n_subtrees);
      emitGauge("decompose.scatter_seconds", scatter_timer.seconds());
    }
    const double seconds = timer.seconds();
    times_.decompose += seconds;
    emitPhase("decompose", seconds);
  }

  /// Tree build + cache setup + leaf sharing, all on the workers.
  /// Idempotent per decomposition: re-building clears the previous
  /// build's buckets and caches first.
  void build() {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "build", "phase");
    split_buckets_ = 0;
    // New build epoch: bucket identities (and hence the persistent target
    // gathers keyed by the epoch) are invalidated.
    ++build_epoch_;
    for (auto& pp : partitions_) {
      pp->clear();
      pp->measured_load = 0.0;
      pp->build_epoch = build_epoch_;
    }
    caches_.clear();
    caches_.resize(static_cast<std::size_t>(rt_.numProcs()));
    typename CacheManager<Data>::Options copts;
    copts.model = conf_.cache_model;
    copts.fetch_depth = conf_.fetch_depth;
    copts.bits_per_level = conf_.bitsPerLevel();
    // Retry budget for injected fetch failures comes from the runtime's
    // active fault schedule (the injector itself is read live, so faults
    // configured after build() still apply to traversal fills).
    copts.max_fetch_retries = rt_.faultConfig().max_fetch_retries;
    copts.instr = instr_;
    for (int p = 0; p < rt_.numProcs(); ++p) {
      caches_[static_cast<std::size_t>(p)].init(&rt_, p, copts, &caches_);
    }

    // 1. Each Subtree builds its local tree and registers its root in the
    //    process-level hash table (locked inserts, build phase only).
    for (auto& stp : subtrees_) {
      Subtree<Data>* st = stp.get();
      rt_.enqueue(st->home_proc, [this, st] {
        rts::ActivityScope scope(instr_.profiler, rts::Activity::kTreeBuild);
        st->build(tree_type_, conf_.bucket_size);
        caches_[static_cast<std::size_t>(st->home_proc)].insertLocalRoot(
            st->root->key, st->root);
      });
    }
    rt_.drain();

    // 2. Broadcast root records; every process assembles the upper tree.
    std::vector<RootRecord<Data>> records;
    records.reserve(subtrees_.size());
    for (const auto& st : subtrees_) records.push_back(st->rootRecord());
    const std::size_t bytes = records.size() * sizeof(RootRecord<Data>);
    for (int p = 0; p < rt_.numProcs(); ++p) {
      if (!rt_.rankAlive(p)) continue;
      rt_.send(0, p, p == 0 ? 0 : bytes, [this, p, records] {
        rts::ActivityScope scope(instr_.profiler, rts::Activity::kTreeBuild);
        caches_[static_cast<std::size_t>(p)].buildUpperTree(records, universe_);
      });
    }
    rt_.drain();

    // 2b. Proactive branch sharing (Configuration::share_levels): each
    //     Subtree broadcasts its top levels so traversals start with them
    //     cached, trading build-time bytes for traversal-time fetches.
    if (conf_.share_levels > 0) {
      const int levels = conf_.share_levels;
      for (auto& stp : subtrees_) {
        Subtree<Data>* st = stp.get();
        rt_.enqueue(st->home_proc, [this, st, levels] {
          rts::ActivityScope scope(instr_.profiler, rts::Activity::kTreeBuild);
          auto block = std::make_shared<ResponseBlock<Data>>(
              serializeRegion(st->root, levels));
          for (int p = 0; p < rt_.numProcs(); ++p) {
            if (p == st->home_proc || !rt_.rankAlive(p)) continue;
            rt_.send(st->home_proc, p, block->byteSize(), [this, p, block] {
              rts::ActivityScope insert_scope(instr_.profiler,
                                              rts::Activity::kTreeBuild);
              caches_[static_cast<std::size_t>(p)].preload(*block);
            });
          }
        });
      }
      rt_.drain();
    }

    // 3. Leaf sharing: Subtrees hand their buckets to Partitions,
    //    splitting only the buckets whose particles span Partitions.
    WallTimer share_timer;
    for (auto& stp : subtrees_) {
      Subtree<Data>* st = stp.get();
      rt_.enqueue(st->home_proc, [this, st] {
        rts::ActivityScope scope(instr_.profiler, rts::Activity::kTreeBuild);
        shareLeaves(*st);
      });
    }
    rt_.drain();
    const double share_seconds = share_timer.seconds();
    times_.leaf_share += share_seconds;
    const double seconds = timer.seconds();
    times_.build += seconds;
    emitPhase("build", seconds);
    emitPhase("leaf_share", share_seconds);
  }

  /// Run a top-down traversal with visitor `V` over every Partition and
  /// wait for global completion (quiescence). With
  /// EvalKernel::kBatched the walk only records per-bucket interaction
  /// lists; a second phase (after quiescence) drains them through the
  /// visitor's batch kernels — see core/batch_eval.hpp for validity
  /// constraints.
  template <typename V>
  void traverse(V visitor = {},
                TraversalStyle style = TraversalStyle::kTransposed,
                EvalKernel kernel = EvalKernel::kVisitor) {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "traverse.top_down", "traversal");
    // Traversers live in a member, not a local: if the drain watchdog
    // throws (rank crash), stale resume closures still queued on live
    // ranks must keep pointing at live traversers until abortTraversals().
    active_traversers_.clear();
    active_traversers_.reserve(partitions_.size());
    for (auto& pp : partitions_) {
      Partition<Data>* part = pp.get();
      auto trav = std::make_unique<TopDownTraverser<Data, V>>(
          *part, caches_[static_cast<std::size_t>(part->home_proc)], rt_,
          visitor, style, kernel, conf_.batch_drain, instr_);
      auto* raw = trav.get();
      active_traversers_.push_back(std::move(trav));
      rt_.enqueue(part->home_proc, [raw] { raw->start(); });
    }
    rt_.drain();
    finishTraversers(active_traversers_);
    active_traversers_.clear();
    {
      const double seconds = timer.seconds();
      times_.traverse += seconds;
      emitPhase("traverse", seconds);
    }
  }

  /// Run an up-and-down traversal (k-nearest-neighbour style). The
  /// batched kernel is only appropriate here for fixed-criterion
  /// searches; criteria that tighten via leaf() lose their pruning (see
  /// UpAndDownTraverser).
  template <typename V>
  void traverseUpAndDown(V visitor = {},
                         EvalKernel kernel = EvalKernel::kVisitor) {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "traverse.up_and_down", "traversal");
    active_traversers_.clear();
    active_traversers_.reserve(partitions_.size());
    for (auto& pp : partitions_) {
      Partition<Data>* part = pp.get();
      auto trav = std::make_unique<UpAndDownTraverser<Data, V>>(
          *part, caches_[static_cast<std::size_t>(part->home_proc)], rt_,
          visitor, kernel, conf_.batch_drain, instr_);
      auto* raw = trav.get();
      active_traversers_.push_back(std::move(trav));
      rt_.enqueue(part->home_proc, [raw] { raw->start(); });
    }
    rt_.drain();
    finishTraversers(active_traversers_);
    active_traversers_.clear();
    {
      const double seconds = timer.seconds();
      times_.traverse += seconds;
      emitPhase("traverse", seconds);
    }
  }

  /// Run a dual-tree traversal with visitor `V` (cell()-driven) over
  /// every Partition and wait for completion.
  template <typename V>
  void traverseDualTree(V visitor = {}) {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "traverse.dual_tree", "traversal");
    active_traversers_.clear();
    active_traversers_.reserve(partitions_.size());
    for (auto& pp : partitions_) {
      Partition<Data>* part = pp.get();
      auto trav = std::make_unique<DualTreeTraverser<Data, V>>(
          *part, caches_[static_cast<std::size_t>(part->home_proc)], rt_,
          visitor, instr_.profiler);
      auto* raw = trav.get();
      active_traversers_.push_back(std::move(trav));
      rt_.enqueue(part->home_proc, [raw] { raw->start(); });
    }
    rt_.drain();
    active_traversers_.clear();
    {
      const double seconds = timer.seconds();
      times_.traverse += seconds;
      emitPhase("traverse", seconds);
    }
  }

  /// Run a best-first (priority-driven) traversal with visitor `V` over
  /// every Partition — the user-extensible Traverser interface the paper
  /// describes for e.g. ray tracing.
  template <typename V>
  void traversePriority(V visitor = {}) {
    WallTimer timer;
    obs::TraceSpan span(instr_.trace, "traverse.priority", "traversal");
    active_traversers_.clear();
    active_traversers_.reserve(partitions_.size());
    for (auto& pp : partitions_) {
      Partition<Data>* part = pp.get();
      auto trav = std::make_unique<PriorityTraverser<Data, V>>(
          *part, caches_[static_cast<std::size_t>(part->home_proc)], rt_,
          visitor, instr_.profiler);
      auto* raw = trav.get();
      active_traversers_.push_back(std::move(trav));
      rt_.enqueue(part->home_proc, [raw] { raw->start(); });
    }
    rt_.drain();
    active_traversers_.clear();
    {
      const double seconds = timer.seconds();
      times_.traverse += seconds;
      emitPhase("traverse", seconds);
    }
  }

  /// Measured traversal load of every Partition (seconds, last
  /// iteration), in Partition-index order.
  std::vector<double> partitionLoads() const {
    std::vector<double> loads;
    loads.reserve(partitions_.size());
    for (const auto& pp : partitions_) loads.push_back(pp->measured_load);
    return loads;
  }

  /// Remap Partitions onto processes from the loads measured in the last
  /// traversal (paper Section II.D.1: chares are migratable, so work can
  /// be redistributed between iterations). The placement persists across
  /// flush()/decompose() as long as the partition count is unchanged.
  /// Returns the predicted imbalance (max/ideal) of the new placement.
  double rebalance(LoadBalancer& lb) {
    const auto loads = partitionLoads();
    placement_override_ = lb.assign(loads, rt_.numProcs());
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      partitions_[i]->home_proc = placement_override_[i];
    }
    return LoadBalancer::imbalance(loads, placement_override_, rt_.numProcs());
  }

  /// Current imbalance of measured load across processes (1.0 = ideal).
  double measuredImbalance() const {
    std::vector<int> placement;
    placement.reserve(partitions_.size());
    for (const auto& pp : partitions_) placement.push_back(pp->home_proc);
    return LoadBalancer::imbalance(partitionLoads(), placement,
                                   rt_.numProcs());
  }

  /// Apply `fn` to every particle held by the Partitions (the writable
  /// copies carrying this iteration's results). Runs in parallel, one
  /// task per partition on its home process.
  template <typename Fn>
  void forEachParticle(Fn fn) {
    for (auto& pp : partitions_) {
      Partition<Data>* part = pp.get();
      rt_.enqueue(part->home_proc, [part, fn] { part->forEachParticle(fn); });
    }
    rt_.drain();
  }

  /// Gather all particles (in input `order`) with their traversal results.
  /// Runs one task per Partition on its home process — every particle's
  /// `order` slot is unique, so the writes are disjoint (the same shape as
  /// flush()'s gather). Partitions whose home rank died since the last
  /// decomposition gather inline so a post-crash collect still completes.
  std::vector<Particle> collect() const {
    std::vector<Particle> out(particles_.size());
    for (const auto& pp : partitions_) {
      const Partition<Data>* part = pp.get();
      auto gather = [part, &out] {
        for (const auto& b : part->buckets) {
          for (const auto& p : b.particles) {
            out[static_cast<std::size_t>(p.order)] = p;
          }
        }
      };
      if (rt_.rankAlive(part->home_proc)) {
        rt_.enqueue(part->home_proc, gather);
      } else {
        gather();
      }
    }
    rt_.drain();
    return out;
  }

  /// Write every particle's acceleration and potential (CSV, in `order`
  /// layout) — the paper's partitions().outputParticleAccelerations().
  void outputParticleAccelerations(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for writing: " + path);
    out << "# order ax ay az potential\n";
    for (const auto& p : collect()) {
      out << p.order << ' ' << p.acceleration.x << ' ' << p.acceleration.y
          << ' ' << p.acceleration.z << ' ' << p.potential << '\n';
    }
    if (!out) throw std::runtime_error("write failed: " + path);
  }

  /// End-of-iteration flush (paper Section II.D.1): pull the updated
  /// particles back from the Partitions, clear per-iteration outputs, and
  /// re-run decomposition so the next build sees the new positions. The
  /// gather runs one task per Partition on its home process — every
  /// particle's `order` slot is unique, so the writes are disjoint.
  void flush() {
    {
      obs::TraceSpan span(instr_.trace, "flush.gather", "phase");
      std::vector<Particle> gathered(particles_.size());
      for (auto& pp : partitions_) {
        Partition<Data>* part = pp.get();
        rt_.enqueue(part->home_proc, [part, &gathered] {
          for (const auto& b : part->buckets) {
            for (const auto& p : b.particles) {
              Particle& q = gathered[static_cast<std::size_t>(p.order)];
              q = p;
              q.acceleration = Vec3{};
              q.potential = 0.0;
              q.density = 0.0;
              q.pressure = 0.0;
              q.collision_partner = -1;
              q.collision_time = 0.0;
              q.neighbor_count = 0;
              q.ball2 = 0.0;
            }
          }
        });
      }
      rt_.drain();
      particles_ = std::move(gathered);
    }
    decompose();
  }

  /// Commit one checkpoint generation (step `step`) to the store: each
  /// live rank gathers the particles it owns and commits a serialized
  /// chunk; the store ships the buddy copy as message traffic, which the
  /// drain here waits out. The caller seals the step afterwards — a crash
  /// mid-checkpoint leaves the generation unsealed and recovery falls
  /// back to the previous one.
  ///
  /// `from_subtrees` gathers from the Subtrees' intake particles (the
  /// only per-rank copy right after decompose(), used for the step -1
  /// baseline); otherwise from the Partitions' writable buckets, whose
  /// union equals collect() — so restoring reproduces the flush() input
  /// state exactly.
  void checkpointTo(rts::CheckpointStore& store, int step,
                    bool from_subtrees) {
    for (const int r : rt_.liveProcs()) {
      rt_.enqueue(r, [this, &store, step, r, from_subtrees] {
        std::vector<Particle> owned;
        if (from_subtrees) {
          for (const auto& st : subtrees_) {
            if (st->home_proc == r) st->appendParticlesTo(owned);
          }
        } else {
          for (const auto& pp : partitions_) {
            if (pp->home_proc == r) pp->appendParticlesTo(owned);
          }
        }
        store.commit(r, step, serializeCheckpointChunk(step, r, owned));
      });
    }
    rt_.drain();
  }

  /// Drop the state of a traversal aborted by a rank crash: the paused
  /// traversers (kept alive across the watchdog throw so stale resume
  /// closures stayed valid) and any recorded interaction lists. Call only
  /// after Runtime::recoverCrashedRanks() settled the system — from that
  /// point nothing queued references them.
  void abortTraversals() {
    active_traversers_.clear();
    for (auto& pp : partitions_) {
      pp->interaction_lists.clear();
    }
  }

  /// Rebuild the particle set from an assembled checkpoint generation and
  /// re-run decomposition over the (possibly shrunken) live ranks. The
  /// result is exactly the fault-free state at the start of the step
  /// after the checkpoint: the gathered buckets equal collect(), and the
  /// output clearing below mirrors flush(). The next build() re-creates
  /// every cache from scratch, which is the recovery's cache
  /// invalidation.
  void restoreFromChunks(const std::vector<std::vector<std::byte>>& chunks) {
    std::vector<Particle> restored;
    std::vector<char> seen;
    std::size_t total = 0;
    for (const auto& chunk : chunks) {
      auto decoded = deserializeCheckpointChunk(chunk);
      auto& particles = decoded.second;
      total += particles.size();
      for (auto& p : particles) {
        const auto idx = static_cast<std::size_t>(p.order);
        if (p.order < 0) {
          throw std::runtime_error(
              "checkpoint restore: particle with negative order");
        }
        if (idx >= restored.size()) {
          restored.resize(idx + 1);
          seen.resize(idx + 1, 0);
        }
        if (seen[idx] != 0) {
          throw std::runtime_error(
              "checkpoint restore: particle order " + std::to_string(idx) +
              " present in two chunks");
        }
        seen[idx] = 1;
        restored[idx] = p;
      }
    }
    if (total != restored.size()) {
      throw std::runtime_error(
          "checkpoint restore: chunks hold " + std::to_string(total) +
          " particle(s) but orders span " + std::to_string(restored.size()));
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] == 0) {
        throw std::runtime_error("checkpoint restore: particle order " +
                                 std::to_string(i) + " missing");
      }
    }
    particles_ = std::move(restored);
    for (auto& p : particles_) {
      p.acceleration = Vec3{};
      p.potential = 0.0;
      p.density = 0.0;
      p.pressure = 0.0;
      p.collision_partner = -1;
      p.collision_time = 0.0;
      p.neighbor_count = 0;
      p.ball2 = 0.0;
    }
    decompose();
  }

  /// Sum cache statistics across processes (after a traversal).
  typename CacheManager<Data>::StatsSnapshot cacheStatsTotal() const {
    typename CacheManager<Data>::StatsSnapshot total;
    for (const auto& c : caches_) total += c.stats();
    return total;
  }

  /// Total cached node copies across processes (memory footprint).
  std::size_t cachedNodeCount() const {
    std::size_t n = 0;
    for (const auto& c : caches_) n += c.cachedNodeCount();
    return n;
  }

  /// Validate every local subtree's structure (tests/debugging).
  std::string validate() const {
    for (const auto& st : subtrees_) {
      if (auto err = validateTree(st->root); !err.empty()) return err;
    }
    return {};
  }

 private:
  /// Post-quiescence phase: each traverser's finish() (the batched
  /// evaluation + counter flush) runs as one task on its Partition's home
  /// process, then we wait for global completion again. Traverser i
  /// belongs to partitions_[i] (same construction order).
  void finishTraversers(
      const std::vector<std::unique_ptr<TraverserBase>>& traversers) {
    for (std::size_t i = 0; i < traversers.size(); ++i) {
      TraverserBase* raw = traversers[i].get();
      rt_.enqueue(partitions_[i]->home_proc, [raw] { raw->finish(); });
    }
    rt_.drain();
  }

  /// Two-pass parallel scatter of particles_ into the Subtrees' intake
  /// vectors: count per (chunk, subtree), lay out chunk-major exclusive
  /// offsets per subtree (so concatenation reproduces the serial
  /// push_back order exactly), then write disjoint ranges directly.
  void scatterParallel(ParallelFor& par, int chunks, int n_subtrees) {
    const std::size_t n = particles_.size();
    const auto ns = static_cast<std::size_t>(n_subtrees);
    if (chunks <= 1) {
      // One chunk: the count pass buys nothing, a single append pass is
      // strictly cheaper (and produces the identical order).
      for (const auto& p : particles_) {
        subtrees_[static_cast<std::size_t>(p.subtree)]->particles.push_back(p);
      }
      return;
    }
    std::vector<std::vector<std::size_t>> counts(
        static_cast<std::size_t>(chunks));
    par.run(chunks, [&](int c) {
      auto& cnt = counts[static_cast<std::size_t>(c)];
      cnt.assign(ns, 0);
      const auto r = decomp::chunkOf(n, chunks, c);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        ++cnt[static_cast<std::size_t>(particles_[i].subtree)];
      }
    });
    std::vector<std::vector<std::size_t>> offsets(
        static_cast<std::size_t>(chunks),
        std::vector<std::size_t>(ns));
    for (std::size_t s = 0; s < ns; ++s) {
      std::size_t run = 0;
      for (int c = 0; c < chunks; ++c) {
        offsets[static_cast<std::size_t>(c)][s] = run;
        run += counts[static_cast<std::size_t>(c)][s];
      }
      subtrees_[s]->particles.resize(run);
    }
    par.run(chunks, [&](int c) {
      auto cursor = offsets[static_cast<std::size_t>(c)];
      const auto r = decomp::chunkOf(n, chunks, c);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        const auto s = static_cast<std::size_t>(particles_[i].subtree);
        subtrees_[s]->particles[cursor[s]++] = particles_[i];
      }
    });
  }

  /// Accumulate one phase duration into the registry gauge
  /// "phase.<name>_seconds". Once-per-phase, so the registry lookup
  /// (mutexed) is off the hot path; no-op without a registry.
  void emitPhase(const char* name, double seconds) {
    if (instr_.metrics == nullptr) return;
    instr_.metrics->gauge(std::string("phase.") + name + "_seconds")
        .add(seconds);
  }

  /// Like emitPhase but with the verbatim gauge name.
  void emitGauge(const char* name, double seconds) {
    if (instr_.metrics == nullptr) return;
    instr_.metrics->gauge(name).add(seconds);
  }

  /// Block placement of chare `i` of `n` onto the live processes (all of
  /// them on a fault-free run — then this is i * procs / n exactly).
  int placeOf(int i, int n) const {
    const int nlive = static_cast<int>(live_procs_.size());
    return live_procs_[static_cast<std::size_t>(
        static_cast<long>(i) * nlive / n)];
  }

  /// Share one Subtree's leaves with the Partitions its particles belong
  /// to (Fig 4 step 3 / Fig 5). Runs on the Subtree's home process.
  void shareLeaves(Subtree<Data>& st) {
    forEachLeaf(st.root, [&](Node<Data>* leaf) {
      if (leaf->type != NodeType::kLeaf) return;
      // Group the bucket's particles by target Partition. Most buckets
      // map to a single Partition; only boundary buckets split.
      std::map<std::int32_t, std::vector<Particle>> by_part;
      for (int i = 0; i < leaf->n_particles; ++i) {
        const Particle& p = leaf->particles[i];
        by_part[p.partition].push_back(p);
      }
      if (by_part.size() > 1) {
        split_buckets_.fetch_add(by_part.size() - 1, std::memory_order_relaxed);
      }
      for (auto& [part_idx, parts] : by_part) {
        Bucket<Data> bucket;
        bucket.leaf_key = leaf->key;
        bucket.box = leaf->box;
        bucket.data = Data(parts.data(), static_cast<int>(parts.size()));
        bucket.particles = std::move(parts);
        Partition<Data>& target =
            *partitions_[static_cast<std::size_t>(part_idx)];
        if (target.home_proc == st.home_proc) {
          // Same process: pass directly (by pointer in the paper; the
          // bucket copy here is the writable target storage either way).
          target.addBucket(std::move(bucket));
        } else {
          const std::size_t bytes = sizeof(Bucket<Data>) +
                                    bucket.particles.size() * sizeof(Particle);
          auto shared = std::make_shared<Bucket<Data>>(std::move(bucket));
          Partition<Data>* tp = &target;
          rt_.send(st.home_proc, target.home_proc, bytes, [tp, shared] {
            tp->addBucket(std::move(*shared));
          });
        }
      }
    });
  }

  rts::Runtime& rt_;
  Configuration conf_;
  Instrumentation instr_;
  TreeTypeT tree_type_{};

  OrientedBox universe_{};
  std::vector<Particle> particles_;
  std::unique_ptr<Decomposition> partition_decomp_;
  std::unique_ptr<Decomposition> subtree_decomp_;
  std::vector<std::unique_ptr<Partition<Data>>> partitions_;
  std::vector<std::unique_ptr<Subtree<Data>>> subtrees_;
  std::deque<CacheManager<Data>> caches_;

  PhaseTimes times_{};
  std::atomic<std::size_t> split_buckets_{0};
  /// Monotone tree-build counter; stamped onto every Partition so the
  /// persistent per-bucket target gathers know when buckets changed.
  std::uint64_t build_epoch_{0};
  std::vector<int> placement_override_;
  /// Ranks chares may be placed on; refreshed by decompose().
  std::vector<int> live_procs_;
  /// The running (or crash-aborted) traversal's traversers; see
  /// traverse() and abortTraversals() for the lifetime contract.
  std::vector<std::unique_ptr<TraverserBase>> active_traversers_;
};

}  // namespace paratreet
