#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "baselines/registry.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"
#include "util/random.h"

namespace tpsl {
namespace {

/// Contract properties every partitioner must satisfy on every graph
/// and every k (paper §II-A):
///  (a) each edge assigned exactly once,
///  (b) the hard cap α·|E|/k respected (when the partitioner promises
///      it),
///  (c) RF >= 1 and RF <= min(k, max-degree bound),
///  (d) deterministic output under a fixed seed.
/// Parameterized sweep: partitioner name × graph kind × k.

enum class GraphKind { kSocial, kCommunity, kUniform, kTiny };

std::vector<Edge> MakeGraph(GraphKind kind) {
  switch (kind) {
    case GraphKind::kSocial: {
      RmatConfig config;
      config.scale = 11;
      config.edge_factor = 8;
      return GenerateRmat(config);
    }
    case GraphKind::kCommunity: {
      PlantedPartitionConfig config;
      config.num_vertices = 2048;
      config.num_edges = 16000;
      config.num_communities = 32;
      return GeneratePlantedPartition(config);
    }
    case GraphKind::kUniform: {
      ErdosRenyiConfig config;
      config.num_vertices = 2048;
      config.num_edges = 16000;
      return GenerateErdosRenyi(config);
    }
    case GraphKind::kTiny:
      return {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 3}};
  }
  return {};
}

const char* GraphKindName(GraphKind kind) {
  switch (kind) {
    case GraphKind::kSocial:
      return "social";
    case GraphKind::kCommunity:
      return "community";
    case GraphKind::kUniform:
      return "uniform";
    case GraphKind::kTiny:
      return "tiny";
  }
  return "?";
}

using ParamType = std::tuple<std::string, GraphKind, uint32_t>;

class PartitionerContractTest : public testing::TestWithParam<ParamType> {};

TEST_P(PartitionerContractTest, SatisfiesPartitioningContract) {
  const auto& [name, kind, k] = GetParam();
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;

  // RunPartitioner validates (a) every edge assigned once and (b) the
  // capacity bound for cap-enforcing partitioners.
  auto result = RunPartitioner(**partitioner_or, stream, config);
  ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();

  // (c) replication factor bounds.
  if (!edges.empty()) {
    EXPECT_GE(result->quality.replication_factor, 1.0) << name;
    EXPECT_LE(result->quality.replication_factor, static_cast<double>(k))
        << name;
  }
  EXPECT_EQ(result->quality.partition_sizes.size(), k) << name;
}

TEST_P(PartitionerContractTest, DeterministicUnderFixedSeed) {
  const auto& [name, kind, k] = GetParam();
  if (name == "DNE") {
    GTEST_SKIP() << "DNE is parallel; thread interleaving is not seeded";
  }
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;

  EdgeListSink sink_a(k), sink_b(k);
  ASSERT_TRUE(
      (*partitioner_or)->Partition(stream, config, sink_a, nullptr).ok());
  ASSERT_TRUE(
      (*partitioner_or)->Partition(stream, config, sink_b, nullptr).ok());
  EXPECT_EQ(sink_a.partitions(), sink_b.partitions()) << name;
}

/// A 4-worker pool shared by the threads=4 runs, so they get real
/// concurrency whatever the host's core count.
exec::ThreadPool& FourWorkerPool() {
  static exec::ThreadPool pool(4);
  return pool;
}

/// Runs `name` through RunPartitioner at `threads` with the partitions
/// kept, and holds the run's quality to ComputeQuality over the SAME
/// run's partitions: the two must agree bit for bit — same integer
/// tallies, same double arithmetic. The run's quality comes from the
/// partitioner's own replica state when it reports one, from the
/// streaming quality sink otherwise; both must match. (Scheduling-
/// dependent partitioners differ across runs, but oracle and quality
/// observe one identical run here.)
void ExpectRunQualityMatchesOracle(const std::string& name, GraphKind kind,
                                   uint32_t k, uint32_t threads) {
  auto partitioner_or = MakePartitioner(name);
  ASSERT_TRUE(partitioner_or.ok());
  const std::string label = name + "/" + GraphKindName(kind) + "/k" +
                            std::to_string(k) + "/t" +
                            std::to_string(threads);

  const std::vector<Edge> edges = MakeGraph(kind);
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = k;
  config.exec.threads = threads;
  if (threads > 1) {
    config.exec.pool = &FourWorkerPool();
  }
  RunOptions options;
  options.keep_partitions = true;

  auto result = RunPartitioner(**partitioner_or, stream, config, options);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  EXPECT_EQ(result->stats.quality.has_value(),
            (*partitioner_or)->reports_quality())
      << label;

  const PartitionQuality oracle = ComputeQuality(result->partitions);
  EXPECT_EQ(result->quality.replication_factor, oracle.replication_factor)
      << label;
  EXPECT_EQ(result->quality.measured_alpha, oracle.measured_alpha) << label;
  EXPECT_EQ(result->quality.num_edges, oracle.num_edges) << label;
  EXPECT_EQ(result->quality.num_covered_vertices,
            oracle.num_covered_vertices)
      << label;
  EXPECT_EQ(result->quality.max_partition_size, oracle.max_partition_size)
      << label;
  EXPECT_EQ(result->quality.min_partition_size, oracle.min_partition_size)
      << label;
  EXPECT_EQ(result->quality.partition_sizes, oracle.partition_sizes)
      << label;
}

TEST_P(PartitionerContractTest, StreamingQualityMatchesOracleExactly) {
  const auto& [name, kind, k] = GetParam();
  for (const uint32_t threads : {1u, 4u}) {
    ExpectRunQualityMatchesOracle(name, kind, k, threads);
  }
}

/// The parallel 2PS cores report quality from their shared atomic bit
/// matrix; at threads=4 that matrix is written by concurrent workers,
/// and it must still equal the oracle over the delivered edges.
TEST(ParallelCoreQualityTest, MatchesOracleExactlyAtOneAndFourThreads) {
  for (const char* name : {"2PS-L(par)", "2PS-HDRF(par)"}) {
    for (const GraphKind kind : {GraphKind::kSocial, GraphKind::kCommunity,
                                 GraphKind::kUniform, GraphKind::kTiny}) {
      for (const uint32_t k : {2u, 5u, 32u}) {
        for (const uint32_t threads : {1u, 4u}) {
          ExpectRunQualityMatchesOracle(name, kind, k, threads);
        }
      }
    }
  }
}

/// The paper's space claim, state independent of the thread count, as
/// the runner reports it: 2PS-L(par) at threads=4 must report the same
/// whole-run state_bytes as at threads=1. The graph is 256 disjoint
/// 16-vertex components of 64 edges each, one component per 64-edge
/// batch, so every worker clusters its own component in stream order
/// and the cluster count (which sizes part of the partitioner's state)
/// matches the sequential run; any difference left is sink-side state
/// that grows with the workers.
TEST(ParallelCoreQualityTest, StateBytesIndependentOfThreadCount) {
  constexpr uint32_t kComponents = 256;
  constexpr uint32_t kComponentVertices = 16;
  constexpr uint32_t kComponentEdges = 64;
  SplitMix64 rng(7);
  std::vector<Edge> edges;
  for (uint32_t c = 0; c < kComponents; ++c) {
    const VertexId base = c * kComponentVertices;
    for (uint32_t i = 0; i < kComponentEdges; ++i) {
      const VertexId u = base + static_cast<VertexId>(
                                    rng.NextBounded(kComponentVertices));
      const VertexId v = base + static_cast<VertexId>(
                                    rng.NextBounded(kComponentVertices));
      edges.push_back({u, v});
    }
  }

  const auto run_state_bytes = [&](uint32_t threads) -> uint64_t {
    auto partitioner = MakePartitioner("2PS-L(par)");
    EXPECT_TRUE(partitioner.ok());
    InMemoryEdgeStream stream(edges);
    PartitionConfig config;
    config.num_partitions = 8;
    config.exec.threads = threads;
    config.exec.batch_size = kComponentEdges;
    config.exec.pool = &FourWorkerPool();
    auto result = RunPartitioner(**partitioner, stream, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->stats.state_bytes : 0;
  };
  const uint64_t t1 = run_state_bytes(1);
  EXPECT_GT(t1, 0u);
  EXPECT_EQ(run_state_bytes(4), t1);
  EXPECT_EQ(run_state_bytes(4), t1);
}

std::string ParamName(const testing::TestParamInfo<ParamType>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (c == '-' || c == '*') {
      c = '_';
    }
  }
  return name + "_" + GraphKindName(std::get<1>(info.param)) + "_k" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, PartitionerContractTest,
    testing::Combine(
        testing::Values("2PS-L", "2PS-HDRF", "HDRF", "DBH", "Grid", "Hash",
                        "Greedy", "ADWISE", "NE", "SNE", "DNE", "HEP-1",
                        "HEP-10", "HEP-100", "METIS*"),
        testing::Values(GraphKind::kSocial, GraphKind::kCommunity,
                        GraphKind::kUniform, GraphKind::kTiny),
        testing::Values(2u, 5u, 32u)),
    ParamName);

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = MakePartitioner("FancyNewThing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, RosterNamesAllResolve) {
  for (const std::string& name : Fig4PartitionerNames()) {
    EXPECT_TRUE(MakePartitioner(name).ok()) << name;
  }
  for (const std::string& name : StreamingPartitionerNames()) {
    EXPECT_TRUE(MakePartitioner(name).ok()) << name;
  }
}

/// Quality ordering sanity (weak form of the paper's Fig. 4): on a
/// community graph, clustering/expansion-aware partitioners beat plain
/// hashing by a clear margin.
TEST(QualityOrderingTest, StatefulBeatsStatelessOnCommunityGraph) {
  const std::vector<Edge> edges = MakeGraph(GraphKind::kCommunity);
  PartitionConfig config;
  config.num_partitions = 32;

  const auto rf = [&](const std::string& name) {
    auto partitioner = MakePartitioner(name);
    EXPECT_TRUE(partitioner.ok());
    InMemoryEdgeStream stream(edges);
    auto result = RunPartitioner(**partitioner, stream, config);
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    return result->quality.replication_factor;
  };

  const double hash_rf = rf("Hash");
  EXPECT_LT(rf("2PS-L"), hash_rf);
  EXPECT_LT(rf("HDRF"), hash_rf);
  EXPECT_LT(rf("NE"), hash_rf);
}

}  // namespace
}  // namespace tpsl
