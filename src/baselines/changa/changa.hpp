#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "apps/collision/collision.hpp"
#include "apps/gravity/gravity.hpp"
#include "rts/runtime.hpp"
#include "tree/particle.hpp"
#include "util/key.hpp"

namespace paratreet::baselines {

/// Run parameters of the mini-ChaNGa solver.
struct ChangaConfig {
  int n_pieces = 8;
  int bucket_size = 12;
  int fetch_depth = 3;
  GravityParams gravity{};
};

/// Counters exposing the mechanisms the paper attributes ChaNGa's
/// overheads to.
struct ChangaStats {
  /// Octree nodes whose key range crosses a process boundary: their data
  /// must be merged globally ("non-local ancestors", Section II.C).
  std::atomic<std::uint64_t> boundary_nodes{0};
  /// Hash-table node resolutions during traversal (ChaNGa's per-access
  /// path; ParaTreeT chases pointers instead).
  std::atomic<std::uint64_t> hash_lookups{0};
  std::atomic<std::uint64_t> requests{0};
  /// Fetches of a key already present or in flight on the process —
  /// the duplicate per-worker fetches the paper calls out.
  std::atomic<std::uint64_t> duplicate_requests{0};
  std::atomic<std::uint64_t> fills{0};
  std::atomic<std::uint64_t> response_bytes{0};

  void reset() {
    boundary_nodes = 0;
    hash_lookups = 0;
    requests = 0;
    duplicate_requests = 0;
    fills = 0;
    response_bytes = 0;
  }
};

/// A faithful miniature of ChaNGa's distributed Barnes-Hut architecture
/// (Jetley et al. 2008), built as the comparison baseline for Figs 10/13
/// and Table II:
///
///  - particles are SFC-sorted and sliced into TreePieces;
///  - every piece builds an octree *from the global root*, so pieces
///    sharing a spatial region duplicate the whole root path ("branch"
///    nodes) — nodes crossing piece boundaries are force-split until
///    piece-complete;
///  - boundary-node moments are completed by a global merge through
///    process 0 (the synchronization step Partitions-Subtrees removes);
///  - the software cache is a process-wide *hash table* keyed by node
///    key, shared-locked on every lookup and exclusively locked on every
///    insertion;
///  - remote-fetch deduplication is per *worker*, so concurrent workers
///    of one process re-fetch the same data (the duplicated requests the
///    paper observes with SMT);
///  - gravity walks the tree once per bucket (no loop transposition).
///
/// The force kernels (expandMultipole/gravApprox/gravExact, opening
/// criterion) are shared with the ParaTreeT gravity application, as in
/// the paper ("identical solutions, same computational work").
class ChangaSolver {
 public:
  ChangaSolver(rts::Runtime& rt, ChangaConfig config)
      : rt_(rt), config_(config) {}

  const ChangaStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

  void load(std::vector<Particle> particles) {
    particles_ = std::move(particles);
  }
  std::size_t particleCount() const { return particles_.size(); }

  /// Decompose (SFC slices) + build piece octrees + global merge.
  void build() {
    universe_ = OrientedBox{};
    for (const auto& p : particles_) universe_.grow(p.position);
    const Vec3 pad = universe_.size() * 1e-9 + Vec3(1e-12);
    universe_.grow(universe_.greater_corner + pad);
    universe_.grow(universe_.lesser_corner - pad);
    assignKeys(particles_, universe_);
    std::sort(particles_.begin(), particles_.end(),
              [](const Particle& a, const Particle& b) { return a.key < b.key; });

    const int P = rt_.numProcs();
    const int T = config_.n_pieces;
    pieces_.clear();
    procs_.clear();
    for (int p = 0; p < P; ++p) procs_.push_back(std::make_unique<ProcState>());

    const std::size_t n = particles_.size();
    proc_lo_.assign(static_cast<std::size_t>(P), ~0ull);
    for (int t = 0; t < T; ++t) {
      auto piece = std::make_unique<Piece>();
      piece->index = t;
      piece->proc = static_cast<int>(static_cast<long>(t) * P / T);
      const std::size_t begin = n * static_cast<std::size_t>(t) /
                                static_cast<std::size_t>(T);
      const std::size_t end = n * (static_cast<std::size_t>(t) + 1) /
                              static_cast<std::size_t>(T);
      piece->particles.assign(particles_.begin() + static_cast<std::ptrdiff_t>(begin),
                              particles_.begin() + static_cast<std::ptrdiff_t>(end));
      piece->lo = begin < n ? particles_[begin].key : ~0ull;
      piece->hi = end < n ? particles_[end].key : ~0ull;
      pieces_.push_back(std::move(piece));
    }
    // Process key ranges: [first own particle key, next process's first).
    for (auto& piece : pieces_) {
      auto& lo = proc_lo_[static_cast<std::size_t>(piece->proc)];
      if (piece->lo < lo) lo = piece->lo;
    }
    for (int p = 0; p < P; ++p) {
      // Empty processes inherit the next one's start.
      if (proc_lo_[static_cast<std::size_t>(p)] == ~0ull) {
        proc_lo_[static_cast<std::size_t>(p)] =
            p + 1 < P ? proc_lo_[static_cast<std::size_t>(p) + 1] : ~0ull;
      }
    }
    proc_lo_[0] = 0;

    // 1. Each piece builds its octree into the process hash table,
    //    duplicating root paths (build-phase exclusive locks).
    for (auto& piecep : pieces_) {
      Piece* piece = piecep.get();
      rt_.enqueue(piece->proc, [this, piece] { buildPiece(*piece); });
    }
    rt_.drain();

    // 2. Global merge of boundary nodes through process 0.
    mergeBoundaries();
  }

  /// Barnes-Hut gravity: per-bucket depth-first walks on every piece.
  void traverseGravity() {
    for (auto& piecep : pieces_) {
      Piece* piece = piecep.get();
      rt_.enqueue(piece->proc, [this, piece] {
        std::lock_guard run(piece->run_mutex);
        for (std::size_t b = 0; b < piece->buckets.size(); ++b) {
          walkGravity(*piece, b, keys::kRoot);
        }
      });
    }
    rt_.drain();
  }

  /// Swept-sphere collision detection, per-bucket walks (Fig 13 pairs it
  /// with gravity in each timed iteration).
  void traverseCollisions(double dt) {
    for (auto& piecep : pieces_) {
      Piece* piece = piecep.get();
      rt_.enqueue(piece->proc, [this, piece, dt] {
        std::lock_guard run(piece->run_mutex);
        for (std::size_t b = 0; b < piece->buckets.size(); ++b) {
          walkCollision(*piece, b, keys::kRoot, dt);
        }
      });
    }
    rt_.drain();
  }

  /// Gather all particles (in input order) with their results.
  std::vector<Particle> collect() const {
    std::vector<Particle> out(particles_.size());
    for (const auto& piece : pieces_) {
      for (const auto& p : piece->particles) {
        out[static_cast<std::size_t>(p.order)] = p;
      }
    }
    return out;
  }

  const OrientedBox& universe() const { return universe_; }

 private:
  /// One entry of the process-wide software cache (hash table keyed by
  /// octree key, as in Warren-Salmon / ChaNGa).
  struct CacheNode {
    CentroidData data{};
    std::uint8_t child_mask{0};
    bool is_leaf{false};
    std::vector<Particle> particles;  ///< leaf payload (copy)
  };

  struct PendingKey {
    Key key;
    int worker;
    bool operator<(const PendingKey& o) const {
      return key != o.key ? key < o.key : worker < o.worker;
    }
  };

  struct ProcState {
    std::shared_mutex table_mutex;
    std::unordered_map<Key, CacheNode> table;
    std::mutex pending_mutex;
    std::map<PendingKey, std::vector<std::function<void()>>> pending;
  };

  struct Piece {
    int index{0};
    int proc{0};
    std::uint64_t lo{0}, hi{~0ull};  ///< SFC key range [lo, hi)
    std::vector<Particle> particles;
    /// Bucket ranges into `particles` plus their bounding boxes.
    struct BucketRef {
      std::size_t begin, end;
      OrientedBox box;
    };
    std::vector<BucketRef> buckets;
    std::mutex run_mutex;  ///< chare-style serialization of walks
  };

  static std::uint64_t rangeStart(Key k) {
    const int lvl = keys::level(k, 3);
    return (k ^ (Key{1} << (3 * lvl))) << (keys::kMortonBits - 3 * lvl);
  }
  static std::uint64_t rangeEnd(Key k) {
    const int lvl = keys::level(k, 3);
    const Key path = (k ^ (Key{1} << (3 * lvl))) + 1;
    return path << (keys::kMortonBits - 3 * lvl);
  }

  void buildPiece(Piece& piece) {
    buildNode(piece, keys::kRoot, 0,
              std::span<Particle>(piece.particles));
  }

  /// Recursive octree build over the piece's particle span. Nodes whose
  /// range crosses the piece boundary are forced open even below the
  /// bucket size — the duplicated boundary chain of SFC+octree codes.
  void buildNode(Piece& piece, Key key, int depth, std::span<Particle> parts) {
    const bool piece_complete =
        rangeStart(key) >= piece.lo && rangeEnd(key) <= piece.hi;
    const bool at_max = depth >= keys::kMortonBitsPerDim;
    CacheNode contribution;
    contribution.data = CentroidData(parts.data(), static_cast<int>(parts.size()));
    const bool make_leaf =
        at_max || (static_cast<int>(parts.size()) <= config_.bucket_size &&
                   piece_complete);
    if (make_leaf) {
      contribution.is_leaf = true;
      contribution.particles.assign(parts.begin(), parts.end());
      piece.buckets.push_back(
          {static_cast<std::size_t>(parts.data() - piece.particles.data()),
           static_cast<std::size_t>(parts.data() - piece.particles.data()) +
               parts.size(),
           bucketBox(parts)});
      insertBuildNode(piece.proc, key, contribution);
      return;
    }
    // Split by the Morton bits below this depth.
    const int shift = keys::kMortonBits - 3 * (depth + 1);
    std::size_t begin = 0;
    for (unsigned c = 0; c < 8; ++c) {
      auto it = std::upper_bound(
          parts.begin() + static_cast<std::ptrdiff_t>(begin), parts.end(), c,
          [shift](unsigned octant, const Particle& p) {
            return octant < ((p.key >> shift) & 0x7u);
          });
      const auto end = static_cast<std::size_t>(it - parts.begin());
      if (end > begin) {
        contribution.child_mask |= static_cast<std::uint8_t>(1u << c);
        buildNode(piece, keys::child(key, c, 3), depth + 1,
                  parts.subspan(begin, end - begin));
      }
      begin = end;
    }
    insertBuildNode(piece.proc, key, contribution);
  }

  static OrientedBox bucketBox(std::span<const Particle> parts) {
    OrientedBox box;
    for (const auto& p : parts) box.grow(p.position);
    return box;
  }

  /// Merge one piece's node contribution into the process table
  /// (exclusive lock per insert; build phase only).
  void insertBuildNode(int proc, Key key, const CacheNode& contribution) {
    auto& ps = *procs_[static_cast<std::size_t>(proc)];
    std::unique_lock lock(ps.table_mutex);
    auto [it, inserted] = ps.table.try_emplace(key, contribution);
    if (!inserted) {
      it->second.data += contribution.data;
      it->second.child_mask |= contribution.child_mask;
      it->second.is_leaf = it->second.is_leaf && contribution.is_leaf;
      if (!contribution.particles.empty()) {
        it->second.particles.insert(it->second.particles.end(),
                                    contribution.particles.begin(),
                                    contribution.particles.end());
      }
    }
  }

  /// The cross-process synchronization step: every process sends its
  /// incomplete (boundary) node records to process 0, which reduces and
  /// broadcasts the completed values.
  void mergeBoundaries() {
    struct BoundaryRecord {
      Key key;
      CentroidData data;
      std::uint8_t child_mask;
    };
    const int P = rt_.numProcs();
    auto reduced = std::make_shared<std::map<Key, BoundaryRecord>>();
    auto reduce_mutex = std::make_shared<std::mutex>();

    for (int p = 0; p < P; ++p) {
      rt_.enqueue(p, [this, p, reduced, reduce_mutex] {
        auto& ps = *procs_[static_cast<std::size_t>(p)];
        std::vector<BoundaryRecord> records;
        {
          std::shared_lock lock(ps.table_mutex);
          for (const auto& [key, node] : ps.table) {
            if (!isCompleteOn(key, p)) {
              records.push_back({key, node.data, node.child_mask});
            }
          }
        }
        stats_.boundary_nodes.fetch_add(records.size(),
                                        std::memory_order_relaxed);
        const std::size_t bytes = records.size() * sizeof(BoundaryRecord);
        rt_.send({.from = p, .to = 0, .bytes = bytes,
                  .on_receive = [records = std::move(records), reduced,
                                 reduce_mutex] {
          std::lock_guard lock(*reduce_mutex);
          for (const auto& rec : records) {
            auto [it, inserted] = reduced->try_emplace(rec.key, rec);
            if (!inserted) {
              it->second.data += rec.data;
              it->second.child_mask |= rec.child_mask;
            }
          }
        }});
      });
    }
    rt_.drain();

    // Broadcast the completed boundary table.
    const std::size_t bytes = reduced->size() * sizeof(BoundaryRecord);
    for (int p = 0; p < P; ++p) {
      rt_.send({.from = 0, .to = p, .bytes = p == 0 ? 0 : bytes,
                .on_receive = [this, p, reduced] {
        auto& ps = *procs_[static_cast<std::size_t>(p)];
        std::unique_lock lock(ps.table_mutex);
        for (const auto& [key, rec] : *reduced) {
          auto& node = ps.table[key];
          node.data = rec.data;
          node.child_mask = rec.child_mask;
          node.is_leaf = false;  // boundary nodes span pieces
        }
      }});
    }
    rt_.drain();
  }

  /// True if the node's whole key range lies inside process `p`'s slice.
  bool isCompleteOn(Key key, int p) const {
    const std::uint64_t lo = proc_lo_[static_cast<std::size_t>(p)];
    const std::uint64_t hi = static_cast<std::size_t>(p) + 1 < proc_lo_.size()
                                 ? proc_lo_[static_cast<std::size_t>(p) + 1]
                                 : ~0ull;
    return rangeStart(key) >= lo && rangeEnd(key) <= hi;
  }

  /// Home process of a node: the one whose slice contains the node's
  /// range start (complete nodes are wholly inside it).
  int ownerOf(Key key) const {
    const std::uint64_t start = rangeStart(key);
    auto it = std::upper_bound(proc_lo_.begin(), proc_lo_.end(), start);
    const auto idx = static_cast<std::size_t>(it - proc_lo_.begin());
    return static_cast<int>(idx > 0 ? idx - 1 : 0);
  }

  /// Shared-locked hash lookup (the per-node access cost of this design).
  /// Returns a *copy snapshot* pointer semantics: the table entry address
  /// stays valid (entries are never erased during traversal).
  const CacheNode* lookup(int proc, Key key) {
    stats_.hash_lookups.fetch_add(1, std::memory_order_relaxed);
    auto& ps = *procs_[static_cast<std::size_t>(proc)];
    std::shared_lock lock(ps.table_mutex);
    auto it = ps.table.find(key);
    return it != ps.table.end() ? &it->second : nullptr;
  }

  /// Remote fetch with per-worker deduplication: concurrent workers of
  /// one process independently fetch the same key.
  void fetchThenResume(int proc, Key key, std::function<void()> resume) {
    const int worker = rts::Runtime::currentWorker();
    auto& ps = *procs_[static_cast<std::size_t>(proc)];
    bool first = false;
    {
      std::lock_guard lock(ps.pending_mutex);
      auto& waiters = ps.pending[{key, worker}];
      first = waiters.empty();
      waiters.push_back(std::move(resume));
    }
    if (!first) return;
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    const int owner = ownerOf(key);
    rt_.send({.from = proc, .to = owner,
              .bytes = sizeof(Key) + 2 * sizeof(int),
              .on_receive = [this, proc, owner, key, worker] {
                serveFetch(owner, key, proc, worker);
              }});
  }

  struct FetchRecord {
    Key key;
    CacheNode node;
  };

  void serveFetch(int owner, Key key, int requester, int worker) {
    auto records = std::make_shared<std::vector<FetchRecord>>();
    collectRegion(owner, key, 0, *records);
    std::size_t bytes = 0;
    for (const auto& r : *records) {
      bytes += sizeof(FetchRecord) + r.node.particles.size() * sizeof(Particle);
    }
    rt_.send({.from = owner, .to = requester, .bytes = bytes,
              .on_receive = [this, requester, key, worker, records,
                             bytes] {
      stats_.fills.fetch_add(1, std::memory_order_relaxed);
      stats_.response_bytes.fetch_add(bytes, std::memory_order_relaxed);
      auto& ps = *procs_[static_cast<std::size_t>(requester)];
      {
        std::unique_lock lock(ps.table_mutex);
        for (auto& rec : *records) {
          auto [it, inserted] = ps.table.try_emplace(rec.key, rec.node);
          if (!inserted) {
            stats_.duplicate_requests.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      std::vector<std::function<void()>> waiters;
      {
        std::lock_guard lock(ps.pending_mutex);
        auto it = ps.pending.find({key, worker});
        if (it != ps.pending.end()) {
          waiters = std::move(it->second);
          ps.pending.erase(it);
        }
      }
      for (auto& resume : waiters) rt_.enqueue(requester, std::move(resume));
    }});
  }

  /// BFS-serialize the region under `key` down to fetch_depth.
  void collectRegion(int owner, Key key, int rel_depth,
                     std::vector<FetchRecord>& out) {
    const CacheNode* node = lookup(owner, key);
    if (node == nullptr) return;
    FetchRecord rec{key, *node};
    if (!node->is_leaf && rel_depth >= config_.fetch_depth) {
      // Frontier: ship the summary only; the requester re-fetches deeper.
      rec.node.particles.clear();
    }
    out.push_back(std::move(rec));
    if (node->is_leaf || rel_depth >= config_.fetch_depth) return;
    for (unsigned c = 0; c < 8; ++c) {
      if (node->child_mask & (1u << c)) {
        collectRegion(owner, keys::child(key, c, 3), rel_depth + 1, out);
      }
    }
  }

  // --- traversal walks -------------------------------------------------------

  void walkGravity(Piece& piece, std::size_t bucket, Key key) {
    const CacheNode* node = lookup(piece.proc, key);
    if (node == nullptr) {
      fetchThenResume(piece.proc, key, [this, &piece, bucket, key] {
        std::lock_guard run(piece.run_mutex);
        walkGravity(piece, bucket, key);
      });
      return;
    }
    const auto& ref = piece.buckets[bucket];
    if (node->data.sum_mass <= 0.0) return;
    const OrientedBox node_box = keys::boxForOctKey(key, universe_);
    const Vec3 c = node->data.centroid();
    const double b2 = node_box.farthestDistanceSquared(c);
    const double d2 = ref.box.distanceSquared(c);
    const GravityParams& g = config_.gravity;
    if (!(d2 * g.theta * g.theta < b2)) {
      const Multipole m = expandMultipole(node->data, g);
      for (std::size_t i = ref.begin; i < ref.end; ++i) {
        Particle& p = piece.particles[i];
        gravApprox(m, p.position, g, p.acceleration, p.potential);
      }
      return;
    }
    if (node->is_leaf) {
      for (std::size_t i = ref.begin; i < ref.end; ++i) {
        Particle& p = piece.particles[i];
        for (const auto& q : node->particles) {
          gravExact(q, p.position, g, p.acceleration, p.potential);
        }
      }
      return;
    }
    for (unsigned ch = 0; ch < 8; ++ch) {
      if (node->child_mask & (1u << ch)) {
        walkGravity(piece, bucket, keys::child(key, ch, 3));
      }
    }
  }

  void walkCollision(Piece& piece, std::size_t bucket, Key key, double dt) {
    const CacheNode* node = lookup(piece.proc, key);
    if (node == nullptr) {
      fetchThenResume(piece.proc, key, [this, &piece, bucket, key, dt] {
        std::lock_guard run(piece.run_mutex);
        walkCollision(piece, bucket, key, dt);
      });
      return;
    }
    const auto& ref = piece.buckets[bucket];
    const OrientedBox node_box = keys::boxForOctKey(key, universe_);
    // Conservative reach: bucket's own max ball/speed derived on the fly.
    double tgt_ball = 0.0, tgt_speed = 0.0;
    for (std::size_t i = ref.begin; i < ref.end; ++i) {
      const Particle& p = piece.particles[i];
      tgt_ball = std::max(tgt_ball, p.ball_radius);
      tgt_speed = std::max(tgt_speed, p.velocity.length());
    }
    const double reach = node->data.max_ball + tgt_ball +
                         (node->data.max_speed + tgt_speed) * dt;
    if (Space::distanceSquared(node_box, ref.box) > reach * reach) return;
    if (node->is_leaf) {
      for (std::size_t i = ref.begin; i < ref.end; ++i) {
        Particle& p = piece.particles[i];
        for (const auto& q : node->particles) {
          if (q.order == p.order) continue;
          double t_hit;
          if (CollisionVisitor::sweptContact(p, q, dt, t_hit)) {
            if (p.collision_partner < 0 || t_hit < p.collision_time) {
              p.collision_partner = q.order;
              p.collision_time = t_hit;
            }
          }
        }
      }
      return;
    }
    for (unsigned ch = 0; ch < 8; ++ch) {
      if (node->child_mask & (1u << ch)) {
        walkCollision(piece, bucket, keys::child(key, ch, 3), dt);
      }
    }
  }

  rts::Runtime& rt_;
  ChangaConfig config_;
  OrientedBox universe_{};
  std::vector<Particle> particles_;
  std::vector<std::unique_ptr<Piece>> pieces_;
  std::vector<std::unique_ptr<ProcState>> procs_;
  std::vector<std::uint64_t> proc_lo_;
  ChangaStats stats_;
};

}  // namespace paratreet::baselines
