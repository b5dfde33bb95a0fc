#include "core/parallel_two_phase.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <utility>
#include <vector>

#include "core/cluster_schedule.h"
#include "core/scoring.h"
#include "exec/parallel_for_edges.h"
#include "partition/score_tables.h"
#include "graph/degrees.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Lock-free vertex-to-partition replication bit matrix. Readers may
/// observe slightly stale bits (benign: only affects scoring quality,
/// never correctness).
class AtomicReplicationBits {
 public:
  AtomicReplicationBits(VertexId num_vertices, uint32_t num_partitions)
      : num_partitions_(num_partitions),
        words_((static_cast<uint64_t>(num_vertices) * num_partitions + 63) /
               64) {
    for (auto& word : words_) {
      word.store(0, std::memory_order_relaxed);
    }
  }

  bool Test(VertexId v, PartitionId p) const {
    const uint64_t bit = Index(v, p);
    return (words_[bit >> 6].load(std::memory_order_relaxed) >> (bit & 63)) &
           1;
  }

  /// Bits only go from 0 to 1, so a bit already set needs no
  /// lock-prefixed RMW; after warm-up most commits find both bits set.
  void Set(VertexId v, PartitionId p) {
    const uint64_t bit = Index(v, p);
    const uint64_t mask = uint64_t{1} << (bit & 63);
    std::atomic<uint64_t>& word = words_[bit >> 6];
    if ((word.load(std::memory_order_relaxed) & mask) == 0) {
      word.fetch_or(mask, std::memory_order_relaxed);
    }
  }

  /// Pulls the word holding vertex v's first replica bit toward the
  /// cache.
  void PrefetchRow(VertexId v) const {
    __builtin_prefetch(words_.data() + (Index(v, 0) >> 6), /*rw=*/0,
                       /*locality=*/3);
  }

  uint64_t HeapBytes() const {
    return words_.size() * sizeof(std::atomic<uint64_t>);
  }

  /// The run's quality from the matrix and the final loads: total
  /// replicas are the set bits, covered vertices the non-empty rows.
  /// One read of every word plus one skip per covered row. Call only
  /// after the pass has joined its workers.
  PartitionQuality Quality(std::vector<uint64_t> loads) const {
    uint64_t total_replicas = 0;
    for (const auto& word : words_) {
      total_replicas += std::popcount(word.load(std::memory_order_relaxed));
    }
    // Find the first set bit at or after `bit`, count its row, and
    // resume at the next row's first bit.
    uint64_t covered = 0;
    uint64_t bit = 0;
    const uint64_t num_bits = words_.size() * 64;
    while (bit < num_bits) {
      uint64_t w = bit >> 6;
      uint64_t word = words_[w].load(std::memory_order_relaxed) &
                      (~uint64_t{0} << (bit & 63));
      while (word == 0 && ++w < words_.size()) {
        word = words_[w].load(std::memory_order_relaxed);
      }
      if (word == 0) {
        break;
      }
      const uint64_t found = (w << 6) + std::countr_zero(word);
      ++covered;
      bit = (found / num_partitions_ + 1) * num_partitions_;
    }
    return QualityFromTallies(total_replicas, covered, std::move(loads));
  }

 private:
  uint64_t Index(VertexId v, PartitionId p) const {
    return static_cast<uint64_t>(v) * num_partitions_ + p;
  }

  uint32_t num_partitions_;
  std::vector<std::atomic<uint64_t>> words_;
};

/// Claims one load slot of `partition` if it is below `capacity`.
bool TryClaim(std::atomic<uint64_t>& load, uint64_t capacity) {
  uint64_t current = load.load(std::memory_order_relaxed);
  while (current < capacity) {
    if (load.compare_exchange_weak(current, current + 1,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

struct SharedState {
  const DegreeTable* degrees;
  AtomicReplicationBits* replicas;
  std::vector<std::atomic<uint64_t>>* loads;
  uint64_t capacity;
  uint64_t seed;
  bool use_volume_term;

  /// Claims a partition for `e`: `preferred`, then the sequential
  /// algorithm's overflow chain — degree-hash on the higher-degree
  /// endpoint, then least-loaded. The chain matches
  /// TwoPhasePartitioner's OverflowTarget step for step, so a
  /// single-threaded run makes identical decisions; the CAS retry loop
  /// only matters under concurrency. Returns kInvalidPartition only
  /// when every partition is at capacity, which k * capacity >= |E|
  /// rules out unless the stream delivers more edges than its degree
  /// pass counted.
  PartitionId ClaimWithOverflow(const Edge& e, PartitionId preferred) const {
    if (TryClaim((*loads)[preferred], capacity)) {
      return preferred;
    }
    const VertexId pivot =
        degrees->degree(e.first) >= degrees->degree(e.second) ? e.first
                                                              : e.second;
    const uint32_t k = static_cast<uint32_t>(loads->size());
    const PartitionId hashed =
        static_cast<PartitionId>(Mix64(HashCombine(seed, pivot)) % k);
    if (hashed != preferred && TryClaim((*loads)[hashed], capacity)) {
      return hashed;
    }
    // Last resort, as in the sequential algorithm: the least-loaded
    // partition, re-scanned on CAS failure until none has room.
    for (;;) {
      PartitionId best = 0;
      uint64_t best_load = (*loads)[0].load(std::memory_order_relaxed);
      for (PartitionId p = 1; p < k; ++p) {
        const uint64_t load = (*loads)[p].load(std::memory_order_relaxed);
        if (load < best_load) {
          best = p;
          best_load = load;
        }
      }
      if (best_load >= capacity) {
        return kInvalidPartition;
      }
      if (TryClaim((*loads)[best], capacity)) {
        return best;
      }
    }
  }

  void Commit(const Edge& e, PartitionId p) const {
    replicas->Set(e.first, p);
    replicas->Set(e.second, p);
  }
};

/// Runs one engine-driven pass over the stream: ParallelForEdges pulls
/// batches and fans them out, and each worker runs its batch through
/// ForEachEdgeTwoStage with the pass's `far` and `near` prefetch
/// stages. `choose(edge)` returns the edge's preferred partition, or
/// kInvalidPartition when the other pass owns it; the worker then
/// claims a partition with overflow and commits the edge. `assigned`
/// tallies the pass's edges with one add per batch. Assignments are
/// flushed batch-at-a-time through the batched sink protocol: a
/// ConcurrentSafe pipeline (the runner's threads>1 assembly) absorbs
/// batches lock-free from every worker; anything else is serialized
/// under a mutex.
template <typename FarFn, typename NearFn, typename ChooseFn>
Status ParallelPass(EdgeStream& stream, exec::ThreadPool& pool,
                    uint32_t workers, uint32_t batch_size,
                    const SharedState& shared, AssignmentSink& sink,
                    const FarFn& far, const NearFn& near,
                    const ChooseFn& choose, std::atomic<uint64_t>& assigned) {
  std::mutex sink_mutex;
  const bool concurrent_sink = sink.ConcurrentSafe();
  exec::ParallelForEdgesOptions options;
  options.batch_size = batch_size;
  options.workers = workers;
  return exec::ParallelForEdges(
      stream, pool, options,
      [&](const Edge* edges, size_t count) -> Status {
        obs::TraceSpan span("score.batch", "partition");
        std::vector<Assignment> results;
        results.reserve(count);
        bool full = false;
        ForEachEdgeTwoStage(edges, count, far, near, [&](const Edge& e) {
          const PartitionId preferred = choose(e);
          if (preferred == kInvalidPartition) {
            return;
          }
          const PartitionId target = shared.ClaimWithOverflow(e, preferred);
          if (target == kInvalidPartition) {
            full = true;
            return;
          }
          shared.Commit(e, target);
          results.push_back({e, target});
        });
        ScoredEdgesCounter()->Add(count);
        if (full) {
          return Status::Internal(
              "every partition is at capacity: the stream delivered more "
              "edges than its degree pass counted");
        }
        assigned.fetch_add(results.size(), std::memory_order_relaxed);
        if (!results.empty()) {
          if (concurrent_sink) {
            sink.AssignBatch(results.data(), results.size());
          } else {
            std::lock_guard<std::mutex> lock(sink_mutex);
            sink.AssignBatch(results.data(), results.size());
          }
        }
        return Status::OK();
      });
}

}  // namespace

Status ParallelTwoPhasePartitioner::Partition(EdgeStream& stream,
                                              const PartitionConfig& config,
                                              AssignmentSink& sink,
                                              PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.exec.batch_size == 0) {
    return Status::InvalidArgument("exec.batch_size must be positive");
  }
  PartitionStats local_stats;
  PartitionStats& out = stats != nullptr ? *stats : local_stats;

  // --- Phase 1: degrees (sequential, one counting pass) + clustering
  // on the engine (same worker pool as Phase 2; see
  // ParallelStreamingClustering for the threads=1 identity argument).
  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream));
  }
  out.stream_passes += 1;

  Clustering clustering;
  {
    PhaseTimer timer(&out, "clustering");
    TPSL_ASSIGN_OR_RETURN(
        clustering, ParallelStreamingClustering(stream, degrees,
                                                config.num_partitions,
                                                options_.clustering,
                                                config.exec));
  }
  out.stream_passes += options_.clustering.num_passes;

  // --- Parallel Phase 2 on the execution engine. ---
  PhaseTimer partition_timer(&out, "partitioning");
  const ClusterSchedule schedule = ScheduleClustersGraham(
      clustering.cluster_volumes, config.num_partitions);

  AtomicReplicationBits replicas(degrees.num_vertices(),
                                 config.num_partitions);
  std::vector<std::atomic<uint64_t>> loads(config.num_partitions);
  for (auto& load : loads) {
    load.store(0, std::memory_order_relaxed);
  }

  SharedState shared;
  shared.degrees = &degrees;
  shared.replicas = &replicas;
  shared.loads = &loads;
  shared.capacity = config.PartitionCapacity(degrees.num_edges);
  shared.seed = config.seed;
  shared.use_volume_term = options_.use_cluster_volume_term;

  out.state_bytes = degrees.degrees.size() * sizeof(uint32_t) +
                    clustering.HeapBytes() + schedule.HeapBytes() +
                    replicas.HeapBytes() +
                    loads.size() * sizeof(std::atomic<uint64_t>);

  const uint32_t workers = config.exec.ResolveThreads();
  const uint32_t batch_size = config.exec.batch_size;
  exec::ThreadPool& pool = config.exec.pool_or_global();

  std::atomic<uint64_t> prepartitioned{0};
  std::atomic<uint64_t> remaining{0};

  // Both passes prefetch in two stages (ForEachEdgeTwoStage): the far
  // stage the rows indexed by vertex id, the near stage the rows
  // indexed by the endpoints' cluster ids, which the far stage cached.
  const ClusterId* vertex_cluster = clustering.vertex_cluster.data();
  const PartitionId* cluster_partition = schedule.cluster_partition.data();
  const uint64_t* cluster_volumes = clustering.cluster_volumes.data();
  const uint32_t* degree_data = degrees.degrees.data();

  // Pass A: pre-partition co-located edges. It reads replica rows only
  // for the edges it commits, so its near stage prefetches them only
  // where the cluster ids already show a commit (both endpoints in one
  // cluster), not for every edge.
  TPSL_RETURN_IF_ERROR(ParallelPass(
      stream, pool, workers, batch_size, shared, sink,
      [&](const Edge& e) TPSL_PREFETCH_STAGE {
        PrefetchRead(vertex_cluster + e.first);
        PrefetchRead(vertex_cluster + e.second);
      },
      [&](const Edge& e) TPSL_PREFETCH_STAGE {
        const ClusterId c1 = vertex_cluster[e.first];
        const ClusterId c2 = vertex_cluster[e.second];
        PrefetchRead(cluster_partition + c1);
        PrefetchRead(cluster_partition + c2);
        if (c1 == c2) {
          replicas.PrefetchRow(e.first);
          replicas.PrefetchRow(e.second);
        }
      },
      [&](const Edge& e) -> PartitionId {
        const ClusterId c1 = vertex_cluster[e.first];
        const ClusterId c2 = vertex_cluster[e.second];
        const PartitionId p1 = cluster_partition[c1];
        const PartitionId p2 = cluster_partition[c2];
        if (c1 != c2 && p1 != p2) {
          return kInvalidPartition;  // Scoring pass handles it.
        }
        return p1;
      },
      prepartitioned));
  out.stream_passes += 1;

  // Pass B: score the remaining edges — on their two candidates
  // (kLinear) or on all k partitions with HDRF scoring (kHdrf; the
  // expensive regime where the worker pool actually pays off).
  const bool linear = options_.scoring == ScoringMode::kLinear;
  const bool volume_term = linear && shared.use_volume_term;
  const double lambda = options_.hdrf_lambda;
  TPSL_RETURN_IF_ERROR(ParallelPass(
      stream, pool, workers, batch_size, shared, sink,
      [&](const Edge& e) TPSL_PREFETCH_STAGE {
        PrefetchRead(vertex_cluster + e.first);
        PrefetchRead(vertex_cluster + e.second);
        PrefetchRead(degree_data + e.first);
        PrefetchRead(degree_data + e.second);
        replicas.PrefetchRow(e.first);
        replicas.PrefetchRow(e.second);
      },
      [&](const Edge& e) TPSL_PREFETCH_STAGE {
        const ClusterId c1 = vertex_cluster[e.first];
        const ClusterId c2 = vertex_cluster[e.second];
        PrefetchRead(cluster_partition + c1);
        PrefetchRead(cluster_partition + c2);
        if (volume_term) {
          PrefetchRead(cluster_volumes + c1);
          PrefetchRead(cluster_volumes + c2);
        }
      },
      [&](const Edge& e) -> PartitionId {
        const ClusterId c1 = vertex_cluster[e.first];
        const ClusterId c2 = vertex_cluster[e.second];
        const PartitionId p1 = cluster_partition[c1];
        const PartitionId p2 = cluster_partition[c2];
        if (c1 == c2 || p1 == p2) {
          return kInvalidPartition;  // Already pre-partitioned.
        }
        const uint32_t du = degree_data[e.first];
        const uint32_t dv = degree_data[e.second];
        if (linear) {
          // Shared kernel helper, instantiated over the atomic replica
          // view; the formula and tie-break are the sequential core's,
          // so a threads=1 run makes identical decisions.
          const uint64_t vol1 = volume_term ? cluster_volumes[c1] : 0;
          const uint64_t vol2 = volume_term ? cluster_volumes[c2] : 0;
          return PickTwoPhaseLinear(replicas, e, du, dv, vol1, vol2, p1, p2);
        }
        // HDRF over all k with relaxed (stale-tolerant) load reads.
        const uint32_t k = static_cast<uint32_t>(loads.size());
        uint64_t max_load = 0;
        uint64_t min_load = UINT64_MAX;
        for (const auto& load : loads) {
          const uint64_t value = load.load(std::memory_order_relaxed);
          max_load = std::max(max_load, value);
          min_load = std::min(min_load, value);
        }
        double best_score = -1.0;
        PartitionId preferred = 0;
        for (PartitionId p = 0; p < k; ++p) {
          // Re-reads may exceed the max snapshot under concurrency;
          // clamp so the balance term never underflows.
          const uint64_t load =
              std::min(loads[p].load(std::memory_order_relaxed), max_load);
          const double score =
              HdrfReplicationScore(replicas.Test(e.first, p),
                                   replicas.Test(e.second, p), du, dv) +
              HdrfBalanceScore(load, max_load, min_load, lambda);
          if (score > best_score) {
            best_score = score;
            preferred = p;
          }
        }
        return preferred;
      },
      remaining));
  out.stream_passes += 1;

  out.prepartitioned_edges = prepartitioned.load();
  out.remaining_edges = remaining.load();
  // Each delivered edge belongs to exactly one pass, so the two passes
  // together must have assigned what the degree pass counted.
  if (out.prepartitioned_edges + out.remaining_edges != degrees.num_edges) {
    return Status::Internal("stream size changed between passes");
  }
  // Every delivered edge claimed exactly one load slot and set its two
  // bits; the passes have joined, so these are the final values.
  std::vector<uint64_t> final_loads(loads.size());
  for (size_t p = 0; p < loads.size(); ++p) {
    final_loads[p] = loads[p].load(std::memory_order_relaxed);
  }
  out.quality = replicas.Quality(std::move(final_loads));
  return Status::OK();
}

}  // namespace tpsl
