#include "core/two_phase_partitioner.h"

#include <vector>

#include "core/cluster_schedule.h"
#include "core/scoring.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Overflow chain of Algorithm 2: degree-based hashing on the
/// higher-degree endpoint (line 41), then least-loaded as the last
/// resort described in the paper's prose.
PartitionId OverflowTarget(const ScoreTables& tables,
                           const DegreeTable& degrees, const Edge& e,
                           uint64_t seed) {
  const VertexId pivot = degrees.degree(e.first) >= degrees.degree(e.second)
                             ? e.first
                             : e.second;
  const PartitionId hashed = static_cast<PartitionId>(
      Mix64(HashCombine(seed, pivot)) % tables.num_partitions());
  if (!tables.IsFull(hashed)) {
    return hashed;
  }
  return tables.LeastLoaded();
}

}  // namespace

std::string TwoPhasePartitioner::name() const {
  return options_.scoring == ScoringMode::kLinear ? "2PS-L" : "2PS-HDRF";
}

Status TwoPhasePartitioner::Partition(EdgeStream& stream,
                                      const PartitionConfig& config,
                                      AssignmentSink& sink,
                                      PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local_stats;
  PartitionStats& out = stats != nullptr ? *stats : local_stats;

  // --- Degree pass (reported separately, as in paper Fig. 5). ---
  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream));
  }
  out.stream_passes += 1;

  // --- Phase 1: streaming clustering. ---
  Clustering clustering;
  {
    PhaseTimer timer(&out, "clustering");
    TPSL_ASSIGN_OR_RETURN(
        clustering, StreamingClustering(stream, degrees,
                                        config.num_partitions,
                                        options_.clustering));
  }
  out.stream_passes += options_.clustering.num_passes;

  // --- Phase 2: mapping, pre-partitioning, scoring pass. ---
  PhaseTimer partition_timer(&out, "partitioning");

  const ClusterSchedule schedule =
      options_.scheduling == SchedulingMode::kGraham
          ? ScheduleClustersGraham(clustering.cluster_volumes,
                                   config.num_partitions)
          : ScheduleClustersRoundRobin(clustering.cluster_volumes,
                                       config.num_partitions);

  ScoreTables tables(degrees.num_vertices(), config.num_partitions,
                     config.PartitionCapacity(degrees.num_edges));
  tables.AttachDegrees(degrees.degrees.data());
  tables.AttachClusterVolumes(clustering.cluster_volumes.data());

  out.state_bytes = degrees.degrees.size() * sizeof(uint32_t) +
                    clustering.HeapBytes() + schedule.HeapBytes() +
                    tables.HeapBytes();

  const auto cluster_of = [&clustering](VertexId v) {
    return clustering.vertex_cluster[v];
  };
  const auto partition_of_cluster = [&schedule](ClusterId c) {
    return schedule.cluster_partition[c];
  };
  const auto commit = [&](const Edge& e, PartitionId target) {
    if (tables.IsFull(target)) {
      target = OverflowTarget(tables, degrees, e, config.seed);
    }
    tables.Commit(e, target);
    sink.Assign(e, target);
  };
  const auto prefetch = [&](const Edge& e) TPSL_PREFETCH_STAGE {
    tables.PrefetchEdge(e);
  };

  // Step 2: pre-partition edges whose endpoints share a cluster or
  // whose clusters are mapped to the same partition (lines 16-26).
  TPSL_RETURN_IF_ERROR(
      ForEachEdgePrefetched(stream, prefetch, [&](const Edge& e) {
        const ClusterId c1 = cluster_of(e.first);
        const ClusterId c2 = cluster_of(e.second);
        const PartitionId p1 = partition_of_cluster(c1);
        const PartitionId p2 = partition_of_cluster(c2);
        if (c1 != c2 && p1 != p2) {
          return;  // Handled by the scoring pass.
        }
        commit(e, p1);
        ++out.prepartitioned_edges;
      }));
  out.stream_passes += 1;

  // Step 3: stream the remaining edges (lines 27-44).
  const bool linear = options_.scoring == ScoringMode::kLinear;
  TPSL_RETURN_IF_ERROR(
      ForEachEdgePrefetched(stream, prefetch, [&](const Edge& e) {
        const ClusterId c1 = cluster_of(e.first);
        const ClusterId c2 = cluster_of(e.second);
        const PartitionId p1 = partition_of_cluster(c1);
        const PartitionId p2 = partition_of_cluster(c2);
        if (c1 == c2 || p1 == p2) {
          return;  // Already pre-partitioned.
        }

        const uint32_t du = tables.degree(e.first);
        const uint32_t dv = tables.degree(e.second);
        PartitionId target;
        if (linear) {
          // 2PS-L: score exactly the two candidate partitions.
          const uint64_t vol1 =
              options_.use_cluster_volume_term ? tables.cluster_volume(c1) : 0;
          const uint64_t vol2 =
              options_.use_cluster_volume_term ? tables.cluster_volume(c2) : 0;
          target = PickTwoPhaseLinear(tables.replicas(), e, du, dv, vol1, vol2,
                                      p1, p2);
        } else {
          // 2PS-HDRF: HDRF scoring over all k partitions; capacity is
          // resolved by the overflow chain, not by skipping here.
          target = tables
                       .PickHdrf(e, du, dv, options_.hdrf_lambda,
                                 /*respect_capacity=*/false)
                       .partition;
        }

        commit(e, target);
        ++out.remaining_edges;
      }));
  out.stream_passes += 1;

  // Each delivered edge belongs to exactly one pass, so the two passes
  // together must have assigned what the degree pass counted.
  if (out.prepartitioned_edges + out.remaining_edges != degrees.num_edges) {
    return Status::Internal("stream size changed between passes");
  }
  out.quality = tables.Quality();
  return Status::OK();
}

}  // namespace tpsl
