// Google-benchmark microbenchmarks of the clustering engines: the NN-chain
// agglomerative path (TBPoint re-clusters epochs for every hardware
// configuration, so this is the "one-time profiling" amortized cost) and
// k-means with BIC selection (the Ideal-SimPoint baseline's engine).
#include <benchmark/benchmark.h>

#include "micro_common.hpp"

#include "cluster/hierarchical.hpp"
#include "cluster/kmeans.hpp"
#include "markov/monte_carlo.hpp"
#include "stats/rng.hpp"

namespace {

using namespace tbp;

std::vector<cluster::FeatureVector> random_points(std::size_t n, std::size_t dims,
                                                  std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<cluster::FeatureVector> points(n, cluster::FeatureVector(dims));
  for (auto& p : points) {
    for (double& x : p) x = rng.uniform(0.0, 4.0);
  }
  return points;
}

void BM_NnChainAgglomeration(benchmark::State& state) {
  const auto points =
      random_points(static_cast<std::size_t>(state.range(0)), 1, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::cluster_by_threshold(points, 0.2));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NnChainAgglomeration)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNSquared);

void BM_NaiveAgglomeration(benchmark::State& state) {
  const auto points =
      random_points(static_cast<std::size_t>(state.range(0)), 1, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::agglomerate_naive(points).cut(0.2));
  }
}
BENCHMARK(BM_NaiveAgglomeration)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_DendrogramCut(benchmark::State& state) {
  const auto points = random_points(2048, 1, 13);
  const cluster::Dendrogram tree = cluster::agglomerate(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.cut(0.2));
  }
}
BENCHMARK(BM_DendrogramCut);

void BM_KMeansFixedK(benchmark::State& state) {
  const auto points =
      random_points(static_cast<std::size_t>(state.range(0)), 8, 17);
  stats::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans(points, 8, rng));
  }
}
BENCHMARK(BM_KMeansFixedK)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_KMeansBicSelection(benchmark::State& state) {
  const auto points = random_points(300, 8, 19);
  stats::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::kmeans_bic(points, 15, rng));
  }
}
BENCHMARK(BM_KMeansBicSelection)->Unit(benchmark::kMillisecond);

void BM_MarkovChainSolve(benchmark::State& state) {
  markov::WarpChainParams params;
  params.stall_probability = 0.1;
  params.stall_cycles.assign(static_cast<std::size_t>(state.range(0)), 400.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::solve_warp_chain(params).ipc);
  }
}
BENCHMARK(BM_MarkovChainSolve)->Arg(4)->Arg(6)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  return tbp::bench::run_micro_bench("micro_cluster", argc, argv);
}
