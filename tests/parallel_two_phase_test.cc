#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/parallel_two_phase.h"
#include "core/two_phase_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

std::vector<Edge> TestGraph() {
  auto edges = LoadDataset("OK", /*scale_shift=*/3);
  EXPECT_TRUE(edges.ok());
  return std::move(edges).value();
}

PartitionConfig ConfigWithThreads(uint32_t k, uint32_t threads) {
  PartitionConfig config;
  config.num_partitions = k;
  config.exec.threads = threads;
  return config;
}

TEST(ParallelTwoPhaseTest, SatisfiesContract) {
  ParallelTwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config;
  config.num_partitions = 32;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
  EXPECT_GE(result->quality.replication_factor, 1.0);
}

TEST(ParallelTwoPhaseTest, QualityCloseToSequential) {
  const auto edges = TestGraph();

  TwoPhasePartitioner sequential;
  InMemoryEdgeStream stream_a(edges);
  auto serial = RunPartitioner(sequential, stream_a,
                               ConfigWithThreads(32, 1));
  ASSERT_TRUE(serial.ok());

  ParallelTwoPhasePartitioner parallel;
  InMemoryEdgeStream stream_b(edges);
  auto concurrent = RunPartitioner(parallel, stream_b,
                                   ConfigWithThreads(32, 8));
  ASSERT_TRUE(concurrent.ok());

  // Stale replica reads cost a little quality; the paper predicts
  // "lower partitioning quality" from parallel staleness, but it must
  // stay in the same class.
  EXPECT_LT(concurrent->quality.replication_factor,
            serial->quality.replication_factor * 1.25);
}

TEST(ParallelTwoPhaseTest, SingleThreadWorks) {
  ParallelTwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  auto result =
      RunPartitioner(partitioner, stream, ConfigWithThreads(8, 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

/// The engine contract the 2psl_par_*_t1 baseline anchor relies on:
/// with one worker ParallelForEdges degrades to an in-order inline
/// loop and the parallel partitioner's per-edge decision chain
/// (scoring, overflow hashing, least-loaded fallback) matches the
/// sequential implementation step for step — so the produced
/// partitions must be byte-identical, not merely equal in quality.
TEST(ParallelTwoPhaseTest, SingleThreadMatchesSequential2pslExactly) {
  const auto edges = TestGraph();

  RunOptions keep;
  keep.keep_partitions = true;
  TwoPhasePartitioner sequential;
  InMemoryEdgeStream stream_a(edges);
  auto serial = RunPartitioner(sequential, stream_a, ConfigWithThreads(32, 1),
                               keep);
  ASSERT_TRUE(serial.ok());

  ParallelTwoPhasePartitioner parallel;
  InMemoryEdgeStream stream_b(edges);
  auto single = RunPartitioner(parallel, stream_b, ConfigWithThreads(32, 1),
                               keep);
  ASSERT_TRUE(single.ok());

  ASSERT_EQ(serial->partitions.size(), single->partitions.size());
  for (size_t p = 0; p < serial->partitions.size(); ++p) {
    EXPECT_EQ(serial->partitions[p], single->partitions[p])
        << "partition " << p << " differs";
  }
  EXPECT_EQ(serial->quality.replication_factor,
            single->quality.replication_factor);
}

/// Same anchor for the HDRF scoring mode (2PS-HDRF(par) vs 2PS-HDRF).
TEST(ParallelTwoPhaseTest, SingleThreadMatchesSequentialHdrfExactly) {
  const auto edges = TestGraph();

  TwoPhasePartitioner::Options seq_options;
  seq_options.scoring = TwoPhasePartitioner::ScoringMode::kHdrf;
  RunOptions keep;
  keep.keep_partitions = true;
  TwoPhasePartitioner sequential(seq_options);
  InMemoryEdgeStream stream_a(edges);
  auto serial = RunPartitioner(sequential, stream_a, ConfigWithThreads(16, 1),
                               keep);
  ASSERT_TRUE(serial.ok());

  ParallelTwoPhasePartitioner::Options par_options;
  par_options.scoring = ParallelTwoPhasePartitioner::ScoringMode::kHdrf;
  ParallelTwoPhasePartitioner parallel(par_options);
  InMemoryEdgeStream stream_b(edges);
  auto single = RunPartitioner(parallel, stream_b, ConfigWithThreads(16, 1),
                               keep);
  ASSERT_TRUE(single.ok());

  ASSERT_EQ(serial->partitions.size(), single->partitions.size());
  for (size_t p = 0; p < serial->partitions.size(); ++p) {
    EXPECT_EQ(serial->partitions[p], single->partitions[p])
        << "partition " << p << " differs";
  }
}

TEST(ParallelTwoPhaseTest, CoversAllEdgesAcrossThreadCounts) {
  const auto edges = TestGraph();
  for (const uint32_t threads : {2u, 4u, 16u}) {
    ParallelTwoPhasePartitioner partitioner;
    InMemoryEdgeStream stream(edges);
    PartitionConfig config = ConfigWithThreads(16, threads);
    config.exec.batch_size = 1024;
    EdgeListSink sink(16);
    PartitionStats stats;
    ASSERT_TRUE(partitioner.Partition(stream, config, sink, &stats).ok());
    EXPECT_EQ(stats.prepartitioned_edges + stats.remaining_edges,
              edges.size())
        << threads;
  }
}

TEST(ParallelTwoPhaseTest, RunsOnAnOwnedPool) {
  exec::ThreadPool pool(3);
  ParallelTwoPhasePartitioner partitioner;
  const auto edges = TestGraph();
  InMemoryEdgeStream stream(edges);
  PartitionConfig config = ConfigWithThreads(16, 3);
  config.exec.pool = &pool;
  auto result = RunPartitioner(partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
}

TEST(ParallelTwoPhaseTest, RejectsBadExecConfig) {
  ParallelTwoPhasePartitioner partitioner;
  InMemoryEdgeStream stream({{0, 1}});
  PartitionConfig config;
  config.exec.batch_size = 0;
  CountingSink sink(config.num_partitions);
  EXPECT_FALSE(partitioner.Partition(stream, config, sink, nullptr).ok());
}

/// FNV-1a 64 over the (u, v, partition) assignment stream in delivery
/// order, as in the state kernel identity oracle.
class DigestSink : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    Fold(&edge.first, sizeof(edge.first));
    Fold(&edge.second, sizeof(edge.second));
    Fold(&partition, sizeof(partition));
  }
  uint64_t digest() const { return state_; }

 private:
  void Fold(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

uint64_t AssignmentDigest(const std::string& name,
                          const std::vector<Edge>& edges,
                          const PartitionConfig& config) {
  auto partitioner = MakePartitioner(name);
  EXPECT_TRUE(partitioner.ok()) << name;
  InMemoryEdgeStream stream(edges);
  DigestSink sink;
  const Status status = (*partitioner)->Partition(stream, config, sink,
                                                  nullptr);
  EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  return sink.digest();
}

/// The two-stage prefetch runs its prologue and epilogue wherever a
/// batch is shorter than twice the prefetch distance, so batch sizes
/// around it (1, 3, 16, 17) must decide exactly as the sequential core
/// does, edge for edge and in the same order.
TEST(ParallelTwoPhaseTest, SingleThreadMatchesSequentialAtEveryBatchSize) {
  RmatConfig rmat;
  rmat.scale = 11;
  rmat.edge_factor = 8;
  const std::vector<Edge> edges = GenerateRmat(rmat);
  const std::pair<const char*, const char*> cores[] = {
      {"2PS-L(par)", "2PS-L"}, {"2PS-HDRF(par)", "2PS-HDRF"}};
  for (const auto& [parallel, sequential] : cores) {
    for (const uint32_t k : {4u, 32u}) {
      const uint64_t expected =
          AssignmentDigest(sequential, edges, ConfigWithThreads(k, 1));
      for (const uint32_t batch_size : {1u, 3u, 16u, 17u, 8192u}) {
        PartitionConfig config = ConfigWithThreads(k, 1);
        config.exec.batch_size = batch_size;
        EXPECT_EQ(AssignmentDigest(parallel, edges, config), expected)
            << parallel << " k=" << k << " batch_size=" << batch_size;
      }
    }
  }
}

/// Delivers `first` on the first pass after construction and `later`
/// on every pass after that — a stream whose size changes between the
/// degree pass and the partitioning passes.
class ChangingStream : public EdgeStream {
 public:
  ChangingStream(std::vector<Edge> first, std::vector<Edge> later)
      : first_(std::move(first)), later_(std::move(later)) {}

  Status Reset() override {
    current_ = passes_++ == 0 ? &first_ : &later_;
    position_ = 0;
    return Status::OK();
  }

  size_t Next(Edge* out, size_t capacity) override {
    const size_t n = std::min(capacity, current_->size() - position_);
    std::memcpy(out, current_->data() + position_, n * sizeof(Edge));
    position_ += n;
    return n;
  }

 private:
  std::vector<Edge> first_;
  std::vector<Edge> later_;
  const std::vector<Edge>* current_ = &first_;
  uint32_t passes_ = 0;
  size_t position_ = 0;
};

/// A stream that grows after the degree pass overruns the capacity the
/// degree count set; one that shrinks leaves edges unassigned. Either
/// must end in an error, not a hang or a silently short assignment.
/// tests/CMakeLists.txt gives this suite a TIMEOUT so a hang fails.
TEST(ParallelTwoPhaseTest, StreamChangingSizeBetweenPassesFails) {
  std::vector<Edge> base;
  for (VertexId v = 0; v < 1000; ++v) {
    base.push_back({v, (v * 7 + 1) % 1000});
  }
  std::vector<Edge> doubled = base;
  doubled.insert(doubled.end(), base.begin(), base.end());
  const std::pair<std::vector<Edge>, std::vector<Edge>> shapes[] = {
      {base, doubled}, {doubled, base}};
  for (const auto& [first, later] : shapes) {
    for (const char* name : {"2PS-L", "2PS-L(par)", "2PS-HDRF(par)"}) {
      for (const uint32_t threads : {1u, 4u}) {
        auto partitioner = MakePartitioner(name);
        ASSERT_TRUE(partitioner.ok()) << name;
        ChangingStream stream(first, later);
        CountingSink sink(4);
        const Status status = (*partitioner)->Partition(
            stream, ConfigWithThreads(4, threads), sink, nullptr);
        EXPECT_FALSE(status.ok())
            << name << " t" << threads << " first=" << first.size()
            << " later=" << later.size();
      }
    }
  }
}

}  // namespace
}  // namespace tpsl
