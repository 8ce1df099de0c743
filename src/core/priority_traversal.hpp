#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/cache.hpp"
#include "core/partition.hpp"
#include "core/traversal.hpp"

namespace paratreet {

/// A user-defined traversal order, demonstrating the paper's extensible
/// Traverser interface ("such as a priority-driven traversal for ray
/// tracing"): instead of depth-first order, source nodes are expanded in
/// order of a visitor-supplied priority, so the most promising regions
/// are refined first and pruning criteria that tighten during traversal
/// (best-hit distances, occlusion bounds) converge quickly.
///
/// Visitor concept, in addition to open()/node()/leaf():
///   double priority(S source, T target) — larger = expand sooner.
///
/// Remote nodes pause exactly as in the other traversers; resumed work
/// re-enters the priority queue of its bucket walk.
template <typename Data, typename Visitor>
class PriorityTraverser final : public TraverserBase {
 public:
  PriorityTraverser(Partition<Data>& partition, CacheManager<Data>& cache,
                    rts::Runtime& rt, Visitor visitor = {},
                    Instrumentation instr = {})
      : partition_(partition), cache_(cache), rt_(rt),
        visitor_(std::move(visitor)), instr_(instr) {}

  void start() {
    std::lock_guard run(partition_.run_mutex);
    obs::TimedScope scope(instr_.activity(rts::Activity::kLocalTraversal,
                                          &partition_.measured_load));
    for (std::uint32_t b = 0; b < partition_.buckets.size(); ++b) {
      Frontier frontier;
      push(frontier, cache_.root(), b);
      drain(std::move(frontier), b);
    }
  }

 private:
  struct Entry {
    double priority;
    Node<Data>* node;
    bool operator<(const Entry& o) const { return priority < o.priority; }
  };
  using Frontier = std::priority_queue<Entry>;

  void push(Frontier& frontier, Node<Data>* node, std::uint32_t b) {
    if (node == nullptr || node->type == NodeType::kEmptyLeaf) return;
    auto tgt = partition_.buckets[b].view();
    const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
    frontier.push({visitor_.priority(src, tgt), node});
  }

  /// Expand the frontier best-first until empty; pauses move the whole
  /// remaining frontier into the continuation.
  void drain(Frontier frontier, std::uint32_t b) {
    while (!frontier.empty()) {
      Node<Data>* node = frontier.top().node;
      frontier.pop();
      auto tgt = partition_.buckets[b].view();
      const SpatialNode<Data> src = SpatialNode<Data>::of(*node);
      if (!visitor_.open(src, tgt)) {
        visitor_.node(src, tgt);
        continue;
      }
      switch (node->type) {
        case NodeType::kLeaf:
          visitor_.leaf(src, tgt);
          break;
        case NodeType::kInternal:
        case NodeType::kBoundary:
          for (int c = 0; c < node->n_children; ++c) {
            push(frontier, node->child(c), b);
          }
          break;
        case NodeType::kRemote:
        case NodeType::kRemoteLeaf: {
          pause(node, std::move(frontier), b);
          return;  // the continuation owns the rest of the walk
        }
        case NodeType::kEmptyLeaf:
          break;
      }
    }
  }

  void pause(Node<Data>* ph, Frontier frontier, std::uint32_t b) {
    const int slot = rts::Runtime::currentWorker();
    if (cache_.options().model == CacheModel::kPerThread) {
      if (Node<Data>* priv = cache_.resolvePrivate(ph, slot)) {
        push(frontier, priv, b);
        drain(std::move(frontier), b);
        return;
      }
    }
    Node<Data>* parent = ph->parent;
    const Key key = ph->key;
    auto state = std::make_shared<Frontier>(std::move(frontier));
    cache_.requestThenResume(
        ph,
        [this, parent, ph, key, slot, state, b] {
          Node<Data>* fresh =
              cache_.options().model == CacheModel::kPerThread
                  ? cache_.resolvePrivate(ph, slot)
              : parent != nullptr ? findChildByKey(parent, key)
                                  : cache_.root();
          assert(fresh != nullptr && !fresh->placeholder());
          std::lock_guard run(partition_.run_mutex);
          obs::TimedScope scope(instr_.activity(
              rts::Activity::kRemoteTraversal, &partition_.measured_load));
          push(*state, fresh, b);
          drain(std::move(*state), b);
        },
        slot);
  }

  Partition<Data>& partition_;
  CacheManager<Data>& cache_;
  rts::Runtime& rt_;
  Visitor visitor_;
  Instrumentation instr_;
};

}  // namespace paratreet
