#ifndef TPSL_PARTITION_SCORE_TABLES_H_
#define TPSL_PARTITION_SCORE_TABLES_H_

#include <cstdint>
#include <vector>

#include "core/scoring.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/replication_table.h"
#include "util/status.h"

namespace tpsl {

/// The shared partitioner-state kernel: every stateful scoring loop in
/// the repo (2PS-L/2PS-HDRF cores, the HDRF/Greedy/ADWISE/HEP/SNE/DNE
/// baselines, the hypergraph path) scores against this one struct
/// instead of carrying its own ad-hoc copies of the same arrays.
///
/// Layout is deliberately flat — the HDRF idiom (Petroni et al.,
/// CIKM'15) where the score decomposes into per-partition arrays:
///   * `v2p` replication bit matrix (ReplicationTable on DenseBitset),
///     with per-partition cover counts |V(p_i)|,
///   * per-partition edge loads |p_i| with the running max,
///   * optional non-owning views of the degree and cluster-volume
///     arrays (owned by DegreeTable / Clustering).
/// Scoring helpers preserve each caller's exact iteration order and
/// tie-breaking, so migrating a partitioner onto the kernel is
/// byte-identical (enforced by the state_kernel_identity_test golden
/// checksums).
class ScoreTables {
 public:
  /// `capacity` is the hard per-partition edge cap (kUncapped when the
  /// caller enforces balance elsewhere).
  static constexpr uint64_t kUncapped = ~uint64_t{0};

  ScoreTables(VertexId num_vertices, uint32_t num_partitions,
              uint64_t capacity)
      : replicas_(num_vertices, num_partitions),
        loads_(num_partitions, 0),
        capacity_(capacity) {}

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(loads_.size());
  }
  uint64_t capacity() const { return capacity_; }

  ReplicationTable& replicas() { return replicas_; }
  const ReplicationTable& replicas() const { return replicas_; }

  const std::vector<uint64_t>& loads() const { return loads_; }
  uint64_t load(PartitionId p) const { return loads_[p]; }
  bool IsFull(PartitionId p) const { return loads_[p] >= capacity_; }

  /// Running maximum load, maintained incrementally by Commit — always
  /// equal to max(loads), without the O(k) rescan per edge.
  uint64_t max_load() const { return max_load_; }

  /// Minimum load, O(k) scan (the minimum can move on any commit).
  uint64_t MinLoad() const {
    uint64_t min_load = loads_[0];
    for (const uint64_t load : loads_) {
      if (load < min_load) {
        min_load = load;
      }
    }
    return min_load;
  }

  /// Least-loaded partition, ignoring capacity (first minimum wins).
  PartitionId LeastLoaded() const {
    PartitionId best = 0;
    for (PartitionId p = 1; p < loads_.size(); ++p) {
      if (loads_[p] < loads_[best]) {
        best = p;
      }
    }
    return best;
  }

  /// Least-loaded partition with remaining capacity; kInvalidPartition
  /// when every partition is full.
  PartitionId LeastLoadedOpen() const {
    PartitionId best = kInvalidPartition;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (loads_[p] >= capacity_) {
        continue;
      }
      if (best == kInvalidPartition || loads_[p] < loads_[best]) {
        best = p;
      }
    }
    return best;
  }

  /// Records edge e on partition p: both endpoint replicas, the load,
  /// and the running max.
  void Commit(const Edge& e, PartitionId p) {
    replicas_.Set(e.first, p);
    replicas_.Set(e.second, p);
    if (++loads_[p] > max_load_) {
      max_load_ = loads_[p];
    }
  }

  /// Load-only commit for callers whose replica updates happen
  /// elsewhere (expander slots, redirect sinks).
  void AddLoad(PartitionId p) {
    if (++loads_[p] > max_load_) {
      max_load_ = loads_[p];
    }
  }

  /// Removes one edge from p (DNE-style over-claim rebalancing). After
  /// a SubLoad, max_load() is an upper bound rather than exact; only
  /// callers that never score against max_load may use this.
  void SubLoad(PartitionId p) { --loads_[p]; }

  /// Pulls both endpoints' replica rows toward the cache; scoring
  /// loops issue this a few edges ahead (see ForEachEdgePrefetched).
  void PrefetchEdge(const Edge& e) const {
    replicas_.PrefetchRow(e.first);
    replicas_.PrefetchRow(e.second);
  }

  // --- Optional flat views of sibling state (non-owning). ---

  void AttachDegrees(const uint32_t* degrees) { degrees_ = degrees; }
  void AttachClusterVolumes(const uint64_t* volumes) {
    cluster_volumes_ = volumes;
  }
  uint32_t degree(VertexId v) const { return degrees_[v]; }
  uint64_t cluster_volume(ClusterId c) const { return cluster_volumes_[c]; }

  // --- Score-then-assign helpers (exact legacy arithmetic). ---

  struct Choice {
    PartitionId partition = kInvalidPartition;
    double score = -1.0;
  };

  /// HDRF argmax over all k partitions: replication score plus balance
  /// term against (running max, scanned min). `respect_capacity`
  /// skips full partitions (the HDRF/HEP/ADWISE hard-cap convention);
  /// the 2PS-HDRF core passes false and resolves overflow afterwards.
  Choice PickHdrf(const Edge& e, uint32_t du, uint32_t dv, double lambda,
                  bool respect_capacity) const {
    const uint64_t min_load = MinLoad();
    Choice choice;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (respect_capacity && loads_[p] >= capacity_) {
        continue;
      }
      const double score =
          HdrfReplicationScore(replicas_.Test(e.first, p),
                               replicas_.Test(e.second, p), du, dv) +
          HdrfBalanceScore(loads_[p], max_load_, min_load, lambda);
      if (score > choice.score) {
        choice.score = score;
        choice.partition = p;
      }
    }
    return choice;
  }

  /// PowerGraph greedy cascade (one O(k) scan): least-loaded partition
  /// holding both endpoints, else either endpoint, else least-loaded
  /// open partition. Full partitions are never candidates.
  PartitionId PickGreedy(const Edge& e) const {
    PartitionId best_common = kInvalidPartition;
    PartitionId best_either = kInvalidPartition;
    PartitionId best_any = kInvalidPartition;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (loads_[p] >= capacity_) {
        continue;
      }
      const bool u_on = replicas_.Test(e.first, p);
      const bool v_on = replicas_.Test(e.second, p);
      if (u_on && v_on &&
          (best_common == kInvalidPartition ||
           loads_[p] < loads_[best_common])) {
        best_common = p;
      }
      if ((u_on || v_on) &&
          (best_either == kInvalidPartition ||
           loads_[p] < loads_[best_either])) {
        best_either = p;
      }
      if (best_any == kInvalidPartition || loads_[p] < loads_[best_any]) {
        best_any = p;
      }
    }
    if (best_common != kInvalidPartition) {
      return best_common;
    }
    return best_either != kInvalidPartition ? best_either : best_any;
  }

  /// The quality of everything committed so far. Exact for callers
  /// that route every delivered edge through one Commit and nothing
  /// else through Commit/AddLoad/SubLoad — those partitioners report
  /// it as PartitionStats::quality.
  PartitionQuality Quality() const {
    return QualityFromTallies(replicas_.TotalReplicas(),
                              replicas_.CoveredVertices(), loads_);
  }

  /// Exact bytes held by the kernel state (replication matrix + cover
  /// counts + loads). Attached views are owned elsewhere and counted
  /// by their owners.
  uint64_t HeapBytes() const {
    return replicas_.HeapBytes() + loads_.size() * sizeof(uint64_t);
  }

 private:
  ReplicationTable replicas_;
  std::vector<uint64_t> loads_;
  uint64_t capacity_;
  uint64_t max_load_ = 0;
  const uint32_t* degrees_ = nullptr;
  const uint64_t* cluster_volumes_ = nullptr;
};

/// 2PS-L constant-time pick: scores exactly the two candidate
/// partitions (§III-B Step 3) and keeps the sequential tie-break
/// (score1 >= score2 → p1). Templated over the replica view so the
/// sequential ReplicationTable and the parallel core's atomic bit
/// matrix share one formula.
template <typename ReplicaView>
PartitionId PickTwoPhaseLinear(const ReplicaView& replicas, const Edge& e,
                               uint32_t du, uint32_t dv, uint64_t vol1,
                               uint64_t vol2, PartitionId p1,
                               PartitionId p2) {
  const uint64_t degree_sum = static_cast<uint64_t>(du) + dv;
  const uint64_t volume_sum = vol1 + vol2;
  const double score1 =
      TwopsReplicationTerm(replicas.Test(e.first, p1), du, degree_sum) +
      TwopsReplicationTerm(replicas.Test(e.second, p1), dv, degree_sum) +
      TwopsClusterTerm(true, vol1, volume_sum);
  const double score2 =
      TwopsReplicationTerm(replicas.Test(e.first, p2), du, degree_sum) +
      TwopsReplicationTerm(replicas.Test(e.second, p2), dv, degree_sum) +
      TwopsClusterTerm(true, vol2, volume_sum);
  return score1 >= score2 ? p1 : p2;
}

/// How many edges ahead the batched loops prefetch. Far enough to beat
/// a memory round-trip at a few ns per scored edge, near enough that
/// the lines are still resident when used.
inline constexpr size_t kScorePrefetchDistance = 8;

/// The shared per-batch throughput counter behind every sequential
/// scoring loop: one relaxed Add per 4096-edge batch, so obs snapshots
/// can report edges scored without touching the per-edge path.
inline obs::Counter* ScoredEdgesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("partition.edges_scored");
  return counter;
}

/// Marks a prefetch stage lambda of ForEachEdgeTwoStage:
///   [&](const Edge& e) TPSL_PREFETCH_STAGE { ... }
/// A stage only reads and prefetches, so GCC 12's ipa-modref pass
/// treats it as side-effect free and deletes every call to it that was
/// not inlined early: the prefetches silently compile away. Forcing
/// the stage inline keeps them. The prefetch_codegen_check ctest
/// checks the 2PS-L core's object files for prefetch instructions.
#define TPSL_PREFETCH_STAGE __attribute__((always_inline))

/// Read prefetch of the cache line holding `p`, kept at every cache
/// level. Forced inline for the same reason as the stages.
TPSL_PREFETCH_STAGE inline void PrefetchRead(const void* p) {
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}

/// Two-stage in-batch prefetch around one in-order pass over
/// edges[0, n). The scoring loops' random reads come in two levels:
/// rows indexed by vertex id (cluster id, degree, replica row), and
/// rows indexed by what those hold (the cluster's partition and
/// volume). `far(edge)` runs 2·D edges ahead of `process(edge)` and
/// prefetches the first level; `near(edge)` runs D edges ahead, reads
/// the first level, which is cached by then, and prefetches the
/// second (D = kScorePrefetchDistance). `process` sees the edges in
/// exact order, so the pass decides exactly as a plain loop does. Both
/// stages may read but never write, and must be TPSL_PREFETCH_STAGE.
template <typename FarFn, typename NearFn, typename ProcessFn>
inline void ForEachEdgeTwoStage(const Edge* edges, size_t n, FarFn&& far,
                                NearFn&& near, ProcessFn&& process) {
  constexpr size_t kNear = kScorePrefetchDistance;
  constexpr size_t kFar = 2 * kScorePrefetchDistance;
  for (size_t i = 0; i < n && i < kFar; ++i) {
    far(edges[i]);
  }
  for (size_t i = 0; i < n && i < kNear; ++i) {
    near(edges[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kFar < n) {
      far(edges[i + kFar]);
    }
    if (i + kNear < n) {
      near(edges[i + kNear]);
    }
    process(edges[i]);
  }
}

/// One full pass in stream order — the batched score-then-assign
/// driver. Each 4096-edge batch runs through ForEachEdgeTwoStage with
/// an empty far stage: `prefetch(edge)` is the near stage, issued
/// kScorePrefetchDistance edges ahead of `process(edge)`, and must be
/// TPSL_PREFETCH_STAGE. Processing order is exactly stream order, so
/// the pass is byte-identical to a plain ForEachEdge.
template <typename PrefetchFn, typename ProcessFn>
Status ForEachEdgePrefetched(EdgeStream& stream, PrefetchFn&& prefetch,
                             ProcessFn&& process) {
  TPSL_RETURN_IF_ERROR(stream.Reset());
  constexpr size_t kBatch = 4096;
  Edge buffer[kBatch];
  size_t n;
  while ((n = stream.Next(buffer, kBatch)) > 0) {
    obs::TraceSpan span("score.batch", "partition");
    ForEachEdgeTwoStage(
        buffer, n, [](const Edge&) TPSL_PREFETCH_STAGE {}, prefetch, process);
    ScoredEdgesCounter()->Add(n);
  }
  return stream.Health();
}

}  // namespace tpsl

#endif  // TPSL_PARTITION_SCORE_TABLES_H_
