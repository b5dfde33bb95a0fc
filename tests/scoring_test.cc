#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/scoring.h"
#include "partition/replication_table.h"
#include "partition/score_tables.h"

namespace tpsl {
namespace {

TEST(TwopsScoringTest, ReplicationTermZeroWhenNotReplicated) {
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(false, 10, 30), 0.0);
}

TEST(TwopsScoringTest, ReplicationTermFormula) {
  // g = 1 + (1 - d_self / (d_u + d_v)).
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(true, 10, 40), 1.0 + (1.0 - 0.25));
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(true, 40, 40), 1.0);  // d == sum
}

TEST(TwopsScoringTest, LowDegreeEndpointScoresHigher) {
  // Replicating the low-degree endpoint is worth more (it is cheaper
  // to keep it local than a hub that is replicated anyway).
  const double low = TwopsReplicationTerm(true, 2, 100);
  const double high = TwopsReplicationTerm(true, 98, 100);
  EXPECT_GT(low, high);
}

TEST(TwopsScoringTest, ClusterTermProportionalToVolume) {
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(true, 30, 100), 0.3);
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(false, 30, 100), 0.0);
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(true, 30, 0), 0.0);  // guard
}

TEST(TwopsScoringTest, FullScoreRange) {
  // Max per endpoint: g < 2, sc <= 1 -> total < 6 for two endpoints.
  ReplicationTable replicas(4, 2);
  replicas.Set(0, 0);
  replicas.Set(1, 0);
  const double score =
      TwopsScore(replicas, 0, 1, 1, 1, 50, 50, true, true, 0);
  EXPECT_GT(score, 0.0);
  EXPECT_LT(score, 6.0);
}

TEST(TwopsScoringTest, PrefersPartitionWithBothReplicas) {
  ReplicationTable replicas(4, 2);
  replicas.Set(0, 0);
  replicas.Set(1, 0);
  replicas.Set(0, 1);  // only one endpoint on partition 1
  const double both =
      TwopsScore(replicas, 0, 1, 5, 5, 10, 10, true, false, 0);
  const double one =
      TwopsScore(replicas, 0, 1, 5, 5, 10, 10, false, true, 1);
  EXPECT_GT(both, one);
}

TEST(HdrfScoringTest, NoReplicasNoScore) {
  EXPECT_DOUBLE_EQ(HdrfReplicationScore(false, false, 5, 5), 0.0);
}

TEST(HdrfScoringTest, DegreeWeighting) {
  // θ_u = d_u / (d_u + d_v); replicated endpoint contributes
  // 1 + (1 - θ_self). The lower-degree endpoint contributes more.
  const double low_degree_on = HdrfReplicationScore(true, false, 10, 90);
  const double high_degree_on = HdrfReplicationScore(false, true, 10, 90);
  EXPECT_DOUBLE_EQ(low_degree_on, 1.0 + 0.9);
  EXPECT_DOUBLE_EQ(high_degree_on, 1.0 + 0.1);
}

TEST(HdrfScoringTest, BothReplicatedIsMax) {
  const double both = HdrfReplicationScore(true, true, 10, 10);
  EXPECT_DOUBLE_EQ(both, 3.0);  // 2 * (1 + 0.5)
}

TEST(HdrfScoringTest, BalanceScorePrefersEmptyPartition) {
  const double empty = HdrfBalanceScore(0, 100, 0, 1.1);
  const double full = HdrfBalanceScore(100, 100, 0, 1.1);
  EXPECT_GT(empty, full);
  EXPECT_DOUBLE_EQ(full, 0.0);
}

TEST(HdrfScoringTest, BalanceScoreScalesWithLambda) {
  EXPECT_GT(HdrfBalanceScore(0, 100, 0, 2.0),
            HdrfBalanceScore(0, 100, 0, 1.0));
}

TEST(HdrfScoringTest, BalanceScoreBoundedByLambda) {
  // C_BAL <= λ (ε = 1 keeps it strictly below).
  for (uint64_t load = 0; load <= 100; load += 10) {
    EXPECT_LE(HdrfBalanceScore(load, 100, 0, 1.1), 1.1);
  }
}

TEST(HdrfScoringTest, ZeroDegreesAreSafe) {
  // Degenerate but must not divide by zero.
  EXPECT_DOUBLE_EQ(HdrfReplicationScore(true, false, 0, 0), 1.0);
}

/// The two-stage prefetch loop at every batch length around its
/// distances: each edge gets its far stage, then its near stage, then
/// is processed, all exactly once, in stream order, and no stage runs
/// further ahead than its distance.
TEST(ForEachEdgeTwoStageTest, StagesEveryEdgeOnceInOrder) {
  constexpr size_t kNear = kScorePrefetchDistance;
  constexpr size_t kFar = 2 * kScorePrefetchDistance;
  for (size_t n = 0; n <= 3 * kFar + 1; ++n) {
    std::vector<Edge> edges;
    for (size_t i = 0; i < n; ++i) {
      edges.push_back({static_cast<VertexId>(i), 0});
    }
    std::vector<size_t> far_at(n, SIZE_MAX);
    std::vector<size_t> near_at(n, SIZE_MAX);
    std::vector<VertexId> processed;
    size_t event = 0;
    ForEachEdgeTwoStage(
        edges.data(), n,
        [&](const Edge& e) {
          EXPECT_EQ(far_at[e.first], SIZE_MAX) << "n=" << n;
          EXPECT_LE(e.first, processed.size() + kFar) << "n=" << n;
          far_at[e.first] = event++;
        },
        [&](const Edge& e) {
          EXPECT_EQ(near_at[e.first], SIZE_MAX) << "n=" << n;
          EXPECT_LE(e.first, processed.size() + kNear) << "n=" << n;
          near_at[e.first] = event++;
        },
        [&](const Edge& e) {
          EXPECT_LT(near_at[e.first], event) << "n=" << n;
          EXPECT_LT(far_at[e.first], near_at[e.first]) << "n=" << n;
          processed.push_back(e.first);
          ++event;
        });
    ASSERT_EQ(processed.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(processed[i], i) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace tpsl
