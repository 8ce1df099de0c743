#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/sph/knn.hpp"
#include "core/forest.hpp"
#include "util/rng.hpp"

namespace paratreet {
namespace {

/// Data that counts particles (needed to verify coverage invariants).
struct CountData {
  int count{0};
  CountData() = default;
  CountData(const Particle*, int n) : count(n) {}
  CountData& operator+=(const CountData& o) {
    count += o.count;
    return *this;
  }
};

/// Opens everything; counts leaf-level source particles seen per target.
/// After a full traversal every target particle must have seen every
/// particle in the universe exactly once.
struct CoverageVisitor {
  bool open(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {
    return true;
  }
  void node(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {}
  void leaf(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      // Abuse the density field as a per-particle interaction counter.
      target.particle(i).density += source.n_particles;
    }
  }
};

/// Prunes at internal nodes, consuming summaries; checks that
/// node()+leaf() interactions cover each (target, source-particle) pair
/// exactly once regardless of where pruning cuts the tree.
struct PruningVisitor {
  bool open(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    // Geometric, deterministic pruning: open near nodes only.
    return source.box.distanceSquared(target.box.center()) < 0.05;
  }
  void node(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      target.particle(i).density += source.data.count;
    }
  }
  void leaf(const SpatialNode<CountData>& source,
            SpatialNode<CountData>& target) const {
    for (int i = 0; i < target.n_particles; ++i) {
      target.particle(i).density += source.n_particles;
    }
  }
};

Configuration testConfig() {
  Configuration conf;
  conf.min_partitions = 5;
  conf.min_subtrees = 4;
  conf.bucket_size = 10;
  return conf;
}

class TraversalCoverageTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, TraversalStyle, EvalKernel>> {};

TEST_P(TraversalCoverageTest, EveryPairCountedOnce) {
  const auto [procs, workers, style, kernel] = GetParam();
  rts::Runtime rt({procs, workers});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  const std::size_t n = 400;
  forest.load(makeParticles(uniformCube(n, 31)));
  forest.decompose();
  forest.build();
  forest.traverse<CoverageVisitor>({}, style, kernel);
  for (const auto& p : forest.collect()) {
    EXPECT_DOUBLE_EQ(p.density, static_cast<double>(n)) << "order " << p.order;
  }
}

TEST_P(TraversalCoverageTest, PruningStillCoversEveryPair) {
  const auto [procs, workers, style, kernel] = GetParam();
  rts::Runtime rt({procs, workers});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  const std::size_t n = 400;
  forest.load(makeParticles(uniformCube(n, 37)));
  forest.decompose();
  forest.build();
  forest.traverse<PruningVisitor>({}, style, kernel);
  for (const auto& p : forest.collect()) {
    EXPECT_DOUBLE_EQ(p.density, static_cast<double>(n)) << "order " << p.order;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProcGrid, TraversalCoverageTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2),
                       ::testing::Values(TraversalStyle::kTransposed,
                                         TraversalStyle::kPerBucket),
                       ::testing::Values(EvalKernel::kVisitor,
                                         EvalKernel::kBatched)),
    [](const auto& info) {
      const TraversalStyle s = std::get<2>(info.param);
      const EvalKernel k = std::get<3>(info.param);
      return std::string(s == TraversalStyle::kTransposed ? "Transposed"
                                                          : "PerBucket") +
             std::string(k == EvalKernel::kBatched ? "Batched" : "Visitor") +
             "_p" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Traversal, TransposedAndPerBucketAgree) {
  rts::Runtime rt({2, 2});
  auto run = [&](TraversalStyle style) {
    Forest<CountData, OctTreeType> forest(rt, testConfig());
    forest.load(makeParticles(uniformCube(500, 41)));
    forest.decompose();
    forest.build();
    forest.traverse<PruningVisitor>({}, style);
    return forest.collect();
  };
  const auto a = run(TraversalStyle::kTransposed);
  const auto b = run(TraversalStyle::kPerBucket);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].density, b[i].density);
  }
}

// --- k-nearest-neighbour (up-and-down) correctness ---------------------------

std::vector<std::pair<double, int>> bruteForceKnn(
    const std::vector<Particle>& ps, const Vec3& pos, int k) {
  std::vector<std::pair<double, int>> d;
  d.reserve(ps.size());
  for (const auto& p : ps) {
    d.push_back({distanceSquared(p.position, pos), p.order});
  }
  std::sort(d.begin(), d.end());
  d.resize(static_cast<std::size_t>(k));
  return d;
}

class KnnTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(KnnTest, MatchesBruteForce) {
  const auto [k, procs] = GetParam();
  rts::Runtime rt({procs, 2});
  Configuration conf = testConfig();
  Forest<CountData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(uniformCube(350, 53));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();

  NeighborStore store(reference.size(), k);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});

  // Spot-check a sample of particles against brute force.
  for (int order : {0, 17, 99, 250, 349}) {
    const auto expected =
        bruteForceKnn(reference, reference[static_cast<std::size_t>(order)].position, k);
    auto heap = store.neighbors(order);
    ASSERT_EQ(heap.size(), static_cast<std::size_t>(k)) << "order " << order;
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(heap[static_cast<std::size_t>(i)].d2, expected[static_cast<std::size_t>(i)].first,
                  1e-12)
          << "order " << order << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnTest,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Values(1, 3)),
                         [](const auto& info) {
                           std::string name = "k";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_p";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

TEST(KnnTest, SelfIsNearestNeighbor) {
  rts::Runtime rt({2, 1});
  Forest<CountData, OctTreeType> forest(rt, testConfig());
  auto particles = makeParticles(uniformCube(200, 59));
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  NeighborStore store(200, 4);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});
  for (int order = 0; order < 200; ++order) {
    const auto& nbrs = store.neighbors(order);
    bool has_self = false;
    for (const auto& nb : nbrs) {
      if (nb.source->order == order) {
        has_self = true;
        EXPECT_DOUBLE_EQ(nb.d2, 0.0);
      }
    }
    EXPECT_TRUE(has_self) << "order " << order;
  }
}

TEST(NeighborStore, HeapSemantics) {
  NeighborStore store(1, 3);
  Particle target;
  target.order = 0;
  target.position = Vec3(0, 0, 0);
  target.ball2 = kInfiniteBall;
  auto at = [](double x, int order) {
    Particle p;
    p.position = Vec3(x, 0, 0);
    p.order = order;
    p.mass = 1.0;
    return p;
  };
  // The store keeps sources by address: they must outlive it.
  const std::vector<Particle> src = {at(5.0, 1), at(1.0, 2), at(3.0, 3),
                                     at(2.0, 4), at(10.0, 5)};
  store.consider(target, src[0]);
  EXPECT_TRUE(std::isinf(target.ball2));  // not full yet
  store.consider(target, src[1]);
  store.consider(target, src[2]);
  EXPECT_DOUBLE_EQ(target.ball2, 25.0);  // full: farthest is x=5
  store.consider(target, src[3]);        // evicts x=5
  EXPECT_DOUBLE_EQ(target.ball2, 9.0);
  store.consider(target, src[4]);        // too far: ignored
  EXPECT_DOUBLE_EQ(target.ball2, 9.0);
  std::set<int> orders;
  for (const auto& nb : store.neighbors(0)) orders.insert(nb.source->order);
  EXPECT_EQ(orders, (std::set<int>{2, 3, 4}));
}

/// True when NeighborStore::consider accepts a `Source` argument.
template <typename Source>
constexpr bool kConsiderAccepts =
    requires(NeighborStore& s, Particle& t, Source&& q) {
      s.consider(t, std::forward<Source>(q));
    };
static_assert(kConsiderAccepts<const Particle&>);
static_assert(!kConsiderAccepts<Particle>,
              "a temporary source would leave a dangling entry");

TEST(NeighborStore, KeepsTheKSmallestOfASeededStream) {
  // Candidates on an integer lattice around the target, so many share a
  // squared distance (whole shells tie). After every offer the heap must
  // be a max-heap, the ball must be the k-th smallest distance seen so
  // far (infinite before k arrive), and at the end the kept distances
  // must be exactly the k smallest of the stream.
  constexpr int kStream = 10000;
  for (const int k : {1, 2, 3, 8, 32}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    Rng rng(0x6e6b + static_cast<std::uint64_t>(k));
    auto coord = [&] { return static_cast<double>(rng.below(41)) - 20.0; };
    std::vector<Particle> sources(kStream);
    for (int i = 0; i < kStream; ++i) {
      const double x = coord(), y = coord(), z = coord();
      sources[static_cast<std::size_t>(i)].position = Vec3(x, y, z);
      sources[static_cast<std::size_t>(i)].order = i;
    }
    NeighborStore store(1, k);
    Particle target;
    target.order = 0;
    target.ball2 = kInfiniteBall;
    std::vector<double> best;  // sorted k smallest so far: the reference
    for (int i = 0; i < kStream; ++i) {
      const Particle& q = sources[static_cast<std::size_t>(i)];
      store.consider(target, q);
      const double d2 = distanceSquared(target.position, q.position);
      best.insert(std::upper_bound(best.begin(), best.end(), d2), d2);
      if (best.size() > static_cast<std::size_t>(k)) best.pop_back();

      const auto& heap = store.neighbors(0);
      ASSERT_TRUE(std::is_heap(heap.begin(), heap.end())) << "after " << i;
      ASSERT_EQ(heap.size(), best.size()) << "after " << i;
      if (best.size() < static_cast<std::size_t>(k)) {
        ASSERT_TRUE(std::isinf(target.ball2)) << "after " << i;
      } else {
        ASSERT_EQ(target.ball2, best.back()) << "after " << i;
      }
    }
    std::vector<double> kept;
    for (const auto& nb : store.neighbors(0)) {
      EXPECT_EQ(nb.d2, distanceSquared(target.position, nb.source->position));
      EXPECT_EQ(nb.source, &sources[static_cast<std::size_t>(nb.source->order)]);
      kept.push_back(nb.d2);
    }
    std::sort(kept.begin(), kept.end());
    EXPECT_EQ(kept, best);
  }
}

TEST(Traversal, UpAndDownVisitsOwnLeafFirst) {
  // The kNN ball after up-and-down must match pure top-down results;
  // this exercises the descend/ascend machinery across processes.
  rts::Runtime rt({3, 2});
  Configuration conf = testConfig();
  conf.min_partitions = 8;
  Forest<CountData, OctTreeType> forest(rt, conf);
  auto particles = makeParticles(clustered(400, 61, 4, 0.05));
  const auto reference = particles;
  forest.load(std::move(particles));
  forest.decompose();
  forest.build();
  NeighborStore store(reference.size(), 8);
  forest.forEachParticle([](Particle& p) { p.ball2 = kInfiniteBall; });
  forest.traverseUpAndDown(KNearestVisitor<CountData>{&store});
  for (int order : {5, 100, 333}) {
    const auto expected =
        bruteForceKnn(reference, reference[static_cast<std::size_t>(order)].position, 8);
    auto heap = store.neighbors(order);
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor& a, const Neighbor& b) { return a.d2 < b.d2; });
    ASSERT_EQ(heap.size(), 8u);
    EXPECT_NEAR(heap.back().d2, expected.back().first, 1e-12);
  }
}

}  // namespace
}  // namespace paratreet
