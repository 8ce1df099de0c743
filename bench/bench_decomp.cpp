// Decomposition microbench: the serial full-sort reference (a global
// sort per target through Decomposition::findSplitters()) against the
// Forest's parallel histogram pipeline, timed through its own decompose
// phase (box reduction + key assignment + splitter finding + scatter),
// across worker counts. Results go to BENCH_decomp.json (override with
// --out=<path>).
//
// The key-based decompositions (sfc, oct) run on a Plummer sphere under
// an octree; the binary splits (kd, longest) run on a planetesimal disk
// under the matching k-d / longest-dimension tree, so the subtree
// decomposition is a binary split too. The serial reference is
// worker-count independent (it runs on the caller), so it is measured
// once per type as the baseline; the histogram pipeline is swept over
// {1, 2, 4, 8} workers. Every point is also cross-checked against the
// reference for *identical* per-particle partition and subtree
// assignment — the bench exits nonzero on any divergence, so a perf run
// doubles as an equivalence gate.

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/forest.hpp"
#include "apps/gravity/centroid_data.hpp"
#include "util/distributions.hpp"
#include "util/timer.hpp"

using namespace paratreet;

namespace {

constexpr const char* kUsage =
    "usage: bench_decomp [n_particles] [reps] [--out=<path>]\n"
    "  n_particles  particles per dataset (default 200000)\n"
    "  reps         timed repetitions per case, best kept (default 5)\n"
    "  --out=<path> JSON results file (default BENCH_decomp.json)\n";

struct CaseResult {
  std::string decomp;     ///< partition decomposition type name
  std::string dataset;    ///< "plummer" or "disk"
  std::string impl;       ///< "sort" or "histogram"
  int workers = 1;        ///< total worker threads (procs x workers_per_proc)
  double decompose_s = 0.0;
  double speedup = 1.0;   ///< serial-sort time / this time, same decomp type
};

/// One decomposition type to measure: its dataset and the tree type
/// whose subtree decomposition it is paired with.
struct Case {
  DecompType decomp;
  TreeType tree;
  const char* dataset;
  const std::vector<Particle>& particles;
};

Configuration makeConfig(const Case& c) {
  Configuration conf;
  conf.tree_type = c.tree;
  conf.decomp_type = c.decomp;
  // Fixed piece counts across the sweep: the worker count scales the
  // executor, never the problem, so the series is a clean scaling curve
  // and every point is assignment-comparable to the serial baseline.
  conf.min_partitions = 32;
  conf.min_subtrees = 8;
  conf.bucket_size = 16;
  return conf;
}

/// Per-particle (partition, subtree) assignment keyed by order, gathered
/// from the scattered Subtree buckets after decompose().
template <typename TreeT>
std::vector<std::pair<int, int>> assignments(Forest<CentroidData, TreeT>& forest,
                                             std::size_t n) {
  std::vector<std::pair<int, int>> out(n, {-1, -1});
  for (int s = 0; s < forest.numSubtrees(); ++s) {
    for (const auto& p : forest.subtree(s).particles) {
      out[static_cast<std::size_t>(p.order)] = {p.partition, p.subtree};
    }
  }
  return out;
}

/// Best-of-`reps` seconds of the serial full-sort reference: the same
/// padded box, Morton keys and piece counts as Forest::decompose(), but
/// splitters from findSplitters() for both targets and a serial scatter
/// into per-subtree buckets. Also returns the assignment it produced.
double runSortReference(const Case& c, const std::vector<Particle>& base,
                        int reps,
                        std::vector<std::pair<int, int>>& assign_out) {
  const Configuration conf = makeConfig(c);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    std::vector<Particle> ps = base;
    WallTimer timer;
    OrientedBox universe;
    for (const auto& p : ps) universe.grow(p.position);
    const Vec3 pad = universe.size() * 1e-9 + Vec3(1e-12);
    universe.grow(universe.greater_corner + pad);
    universe.grow(universe.lesser_corner - pad);
    assignKeys(ps, universe);
    makeDecomposition(conf.decomp_type)
        ->findSplitters(std::span<Particle>(ps), universe,
                        conf.min_partitions, Decomposition::Target::kPartition);
    const int n_subtrees =
        makeDecomposition(conf.subtreeDecomp())
            ->findSplitters(std::span<Particle>(ps), universe,
                            conf.min_subtrees, Decomposition::Target::kSubtree);
    std::vector<std::vector<Particle>> subtrees(
        static_cast<std::size_t>(n_subtrees));
    for (const auto& p : ps) {
      subtrees[static_cast<std::size_t>(p.subtree)].push_back(p);
    }
    best = std::min(best, timer.seconds());
    assign_out.assign(base.size(), {-1, -1});
    for (const auto& bucket : subtrees) {
      for (const auto& p : bucket) {
        assign_out[static_cast<std::size_t>(p.order)] = {p.partition,
                                                        p.subtree};
      }
    }
  }
  return best;
}

/// Best-of-`reps` Forest::decompose() seconds at `procs` workers; also
/// returns the assignment for cross-checking.
template <typename TreeT>
double runHistogram(const Case& c, int procs, const std::vector<Particle>& base,
                    int reps, std::vector<std::pair<int, int>>& assign_out) {
  rts::Runtime rt({procs, 1});
  Forest<CentroidData, TreeT> forest(rt, makeConfig(c));
  forest.load(base);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    forest.resetPhaseTimes();
    forest.decompose();
    best = std::min(best, forest.phaseTimes().decompose);
  }
  assign_out = assignments(forest, base.size());
  return best;
}

void writeJson(const std::string& path, std::size_t n, int reps,
               const std::vector<CaseResult>& cases, bool match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  std::fprintf(f,
               "{\n  \"n\": %zu,\n  \"reps\": %d,\n"
               "  \"assignments_match\": %s,\n  \"cases\": [\n",
               n, reps, match ? "true" : "false");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(f,
                 "    {\"decomp\": \"%s\", \"dataset\": \"%s\", "
                 "\"impl\": \"%s\", \"workers\": %d, "
                 "\"decompose_s\": %.6f, \"speedup_vs_serial_sort\": %.3f}%s\n",
                 c.decomp.c_str(), c.dataset.c_str(), c.impl.c_str(),
                 c.workers, c.decompose_s, c.speedup,
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

double runHistogramFor(const Case& c, int procs,
                       const std::vector<Particle>& base, int reps,
                       std::vector<std::pair<int, int>>& assign_out) {
  switch (c.tree) {
    case TreeType::eOct:
      return runHistogram<OctTreeType>(c, procs, base, reps, assign_out);
    case TreeType::eKd:
      return runHistogram<KdTreeType>(c, procs, base, reps, assign_out);
    case TreeType::eLongest:
      return runHistogram<LongestDimTreeType>(c, procs, base, reps,
                                              assign_out);
  }
  throw std::logic_error("unknown tree type");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_decomp.json";
  bench::ArgParser args(argc, argv);
  if (args.help()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  args.flag("--out=", out);
  args.rejectLeftovers(2);
  const auto n = args.positional<std::size_t>(1, "n_particles", 200000);
  const int reps = args.positional(2, "reps", 5);
  const std::vector<int> worker_counts{1, 2, 4, 8};

  bench::printHeader("Decomposition",
                     "serial full-sort vs parallel histogram pipeline");
  std::printf("datasets: %zu Plummer / disk particles, best of %d reps\n\n",
              n, reps);

  const auto plummer_set = makeParticles(plummer(n, 99));
  const auto disk_set = makeParticles(planetesimalDisk(n, 99));
  const Case kCases[] = {
      {DecompType::eSfc, TreeType::eOct, "plummer", plummer_set},
      {DecompType::eOct, TreeType::eOct, "plummer", plummer_set},
      {DecompType::eKd, TreeType::eKd, "disk", disk_set},
      {DecompType::eLongest, TreeType::eLongest, "disk", disk_set},
  };
  std::vector<CaseResult> cases;
  bool match = true;

  for (const Case& kase : kCases) {
    const auto& base = kase.particles;
    const std::string type = toString(kase.decomp);
    std::vector<std::pair<int, int>> sort_assign;
    CaseResult sort_case;
    sort_case.decomp = type;
    sort_case.dataset = kase.dataset;
    sort_case.impl = "sort";
    sort_case.workers = 1;
    sort_case.decompose_s = runSortReference(kase, base, reps, sort_assign);
    cases.push_back(sort_case);

    std::printf("%s (%s):\n", type.c_str(), kase.dataset);
    bench::printBar("sort (serial)", sort_case.decompose_s * 1e3,
                    sort_case.decompose_s * 1e3, "ms");
    for (const int workers : worker_counts) {
      std::vector<std::pair<int, int>> hist_assign;
      CaseResult c = sort_case;
      c.impl = "histogram";
      c.workers = workers;
      c.decompose_s = runHistogramFor(kase, workers, base, reps, hist_assign);
      c.speedup = sort_case.decompose_s / c.decompose_s;
      cases.push_back(c);
      bench::printBar("histogram w=" + std::to_string(workers),
                      c.decompose_s * 1e3, sort_case.decompose_s * 1e3, "ms");
      // Equivalence gate: the per-particle check nails the assignment
      // bit-for-bit at every worker count.
      if (hist_assign != sort_assign) {
        std::fprintf(stderr,
                     "FAIL: %s histogram (w=%d) assignment differs from "
                     "sort\n",
                     type.c_str(), workers);
        match = false;
      }
    }
    std::printf("\n");
  }

  writeJson(out, n, reps, cases, match);
  std::printf("results written to %s\n", out.c_str());
  return match ? 0 : 1;
}
