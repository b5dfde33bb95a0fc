#include "core/streaming_clustering.h"

#include <atomic>
#include <limits>

#include "exec/parallel_for_edges.h"
#include "partition/score_tables.h"

namespace tpsl {
namespace {

/// Mutable clustering state shared across streaming passes (the d[],
/// vol[] and v2c[] arrays of paper Algorithm 1).
struct ClusteringState {
  const DegreeTable* degrees;
  std::vector<ClusterId> v2c;
  std::vector<uint64_t> vol;
  uint64_t max_volume;

  void EnsureCluster(VertexId v) {
    if (v2c[v] == kInvalidCluster) {
      v2c[v] = static_cast<ClusterId>(vol.size());
      vol.push_back(degrees->degree(v));
    }
  }

  /// One edge of one streaming pass: lines 11-22 of Algorithm 1.
  void ProcessEdge(const Edge& e) {
    EnsureCluster(e.first);
    EnsureCluster(e.second);

    const ClusterId cu = v2c[e.first];
    const ClusterId cv = v2c[e.second];
    if (cu == cv) {
      return;  // Migration between identical clusters is a no-op.
    }
    // Line 16: both clusters must currently respect the volume bound.
    if (vol[cu] > max_volume || vol[cv] > max_volume) {
      return;
    }
    // Line 17: the vertex whose cluster has the smaller volume
    // (excluding the vertex's own degree) migrates.
    const uint32_t du = degrees->degree(e.first);
    const uint32_t dv = degrees->degree(e.second);
    const int64_t residual_u = static_cast<int64_t>(vol[cu]) - du;
    const int64_t residual_v = static_cast<int64_t>(vol[cv]) - dv;

    VertexId small_vertex;
    uint32_t small_degree;
    ClusterId small_cluster, large_cluster;
    if (residual_u <= residual_v) {
      small_vertex = e.first;
      small_degree = du;
      small_cluster = cu;
      large_cluster = cv;
    } else {
      small_vertex = e.second;
      small_degree = dv;
      small_cluster = cv;
      large_cluster = cu;
    }
    // Line 19: migrate only if the target stays within the bound.
    if (vol[large_cluster] + small_degree <= max_volume) {
      vol[large_cluster] += small_degree;
      vol[small_cluster] -= small_degree;
      v2c[small_vertex] = large_cluster;
    }
  }
};

}  // namespace

StatusOr<Clustering> StreamingClustering(EdgeStream& stream,
                                         const DegreeTable& degrees,
                                         uint32_t num_partitions,
                                         const ClusteringConfig& config) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.num_passes == 0) {
    return Status::InvalidArgument("num_passes must be positive");
  }

  ClusteringState state;
  state.degrees = &degrees;
  state.v2c.assign(degrees.degrees.size(), kInvalidCluster);
  if (config.enforce_volume_cap) {
    const double cap = config.volume_cap_factor *
                       static_cast<double>(degrees.TotalVolume()) /
                       num_partitions;
    state.max_volume = static_cast<uint64_t>(cap);
  } else {
    state.max_volume = std::numeric_limits<uint64_t>::max();
  }

  // The per-edge random accesses are the v2c rows (and the degree
  // entries behind EnsureCluster); run the passes through the kernel's
  // prefetching driver so those lines are in flight a few edges ahead.
  const auto prefetch = [&](const Edge& e) TPSL_PREFETCH_STAGE {
    PrefetchRead(state.v2c.data() + e.first);
    PrefetchRead(state.v2c.data() + e.second);
    PrefetchRead(degrees.degrees.data() + e.first);
    PrefetchRead(degrees.degrees.data() + e.second);
  };
  for (uint32_t pass = 0; pass < config.num_passes; ++pass) {
    TPSL_RETURN_IF_ERROR(ForEachEdgePrefetched(
        stream, prefetch, [&state](const Edge& e) { state.ProcessEdge(e); }));
  }

  // Compact cluster ids to a dense range and recompute volumes from
  // member degrees (drops clusters emptied by migration).
  Clustering result;
  result.vertex_cluster.assign(state.v2c.size(), kInvalidCluster);
  std::vector<ClusterId> remap(state.vol.size(), kInvalidCluster);
  for (VertexId v = 0; v < state.v2c.size(); ++v) {
    const ClusterId old_id = state.v2c[v];
    if (old_id == kInvalidCluster) {
      continue;  // Vertex never appeared in the stream.
    }
    if (remap[old_id] == kInvalidCluster) {
      remap[old_id] = static_cast<ClusterId>(result.cluster_volumes.size());
      result.cluster_volumes.push_back(0);
    }
    const ClusterId new_id = remap[old_id];
    result.vertex_cluster[v] = new_id;
    result.cluster_volumes[new_id] += degrees.degree(v);
  }
  return result;
}

namespace {

/// Shared-state variant of ClusteringState for the engine-driven
/// passes: cluster labels are founding-vertex ids (no shared allocation
/// counter), volumes live in one relaxed-atomic array indexed by label.
/// vol[v] is pre-seeded with degree(v) — exactly the volume of the
/// singleton cluster {v} — so first touch needs only the v2c CAS.
struct AtomicClusteringState {
  const DegreeTable* degrees;
  std::vector<std::atomic<ClusterId>> v2c;
  std::vector<std::atomic<uint64_t>> vol;
  uint64_t max_volume;

  void EnsureCluster(VertexId v) {
    // Check-then-CAS: after warm-up almost every vertex is labeled, and
    // the plain load keeps the hot path free of lock-prefixed RMWs (an
    // unconditional CAS halves inline clustering throughput). The CAS
    // stays authoritative for the cold first touch.
    if (v2c[v].load(std::memory_order_relaxed) != kInvalidCluster) {
      return;
    }
    ClusterId expected = kInvalidCluster;
    v2c[v].compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }

  /// Same decision sequence as ClusteringState::ProcessEdge; reads are
  /// relaxed snapshots, so under concurrency a decision may be made on
  /// stale volumes (benign drift — see header comment). Run inline in
  /// stream order, every snapshot is the exact current value and the
  /// decisions match the sequential pass step for step.
  void ProcessEdge(const Edge& e) {
    EnsureCluster(e.first);
    EnsureCluster(e.second);

    const ClusterId cu = v2c[e.first].load(std::memory_order_relaxed);
    const ClusterId cv = v2c[e.second].load(std::memory_order_relaxed);
    if (cu == cv) {
      return;
    }
    const uint64_t vol_u = vol[cu].load(std::memory_order_relaxed);
    const uint64_t vol_v = vol[cv].load(std::memory_order_relaxed);
    if (vol_u > max_volume || vol_v > max_volume) {
      return;
    }
    const uint32_t du = degrees->degree(e.first);
    const uint32_t dv = degrees->degree(e.second);
    const int64_t residual_u = static_cast<int64_t>(vol_u) - du;
    const int64_t residual_v = static_cast<int64_t>(vol_v) - dv;

    VertexId small_vertex;
    uint32_t small_degree;
    ClusterId small_cluster, large_cluster;
    uint64_t large_volume;
    if (residual_u <= residual_v) {
      small_vertex = e.first;
      small_degree = du;
      small_cluster = cu;
      large_cluster = cv;
      large_volume = vol_v;
    } else {
      small_vertex = e.second;
      small_degree = dv;
      small_cluster = cv;
      large_cluster = cu;
      large_volume = vol_u;
    }
    if (large_volume + small_degree <= max_volume) {
      vol[large_cluster].fetch_add(small_degree, std::memory_order_relaxed);
      vol[small_cluster].fetch_sub(small_degree, std::memory_order_relaxed);
      v2c[small_vertex].store(large_cluster, std::memory_order_relaxed);
    }
  }
};

}  // namespace

StatusOr<Clustering> ParallelStreamingClustering(
    EdgeStream& stream, const DegreeTable& degrees, uint32_t num_partitions,
    const ClusteringConfig& config, const exec::ExecContext& exec) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.num_passes == 0) {
    return Status::InvalidArgument("num_passes must be positive");
  }
  if (exec.batch_size == 0) {
    return Status::InvalidArgument("exec.batch_size must be positive");
  }

  const VertexId num_vertices =
      static_cast<VertexId>(degrees.degrees.size());
  AtomicClusteringState state;
  state.degrees = &degrees;
  state.v2c = std::vector<std::atomic<ClusterId>>(num_vertices);
  state.vol = std::vector<std::atomic<uint64_t>>(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    state.v2c[v].store(kInvalidCluster, std::memory_order_relaxed);
    state.vol[v].store(degrees.degree(v), std::memory_order_relaxed);
  }
  if (config.enforce_volume_cap) {
    const double cap = config.volume_cap_factor *
                       static_cast<double>(degrees.TotalVolume()) /
                       num_partitions;
    state.max_volume = static_cast<uint64_t>(cap);
  } else {
    state.max_volume = std::numeric_limits<uint64_t>::max();
  }

  exec::ParallelForEdgesOptions options;
  options.batch_size = exec.batch_size;
  options.workers = exec.ResolveThreads();
  exec::ThreadPool& pool = exec.pool_or_global();
  const std::atomic<ClusterId>* v2c = state.v2c.data();
  const std::atomic<uint64_t>* vol = state.vol.data();
  const uint32_t* degree_data = degrees.degrees.data();
  for (uint32_t pass = 0; pass < config.num_passes; ++pass) {
    TPSL_RETURN_IF_ERROR(exec::ParallelForEdges(
        stream, pool, options,
        [&](const Edge* edges, size_t count) -> Status {
          // Two-stage in-batch prefetch: the far stage pulls both
          // endpoints' v2c and degree rows, the near stage reads the
          // cluster labels and pulls their vol rows. An unlabeled
          // vertex founds the cluster labeled with its own id.
          ForEachEdgeTwoStage(
              edges, count,
              [&](const Edge& e) TPSL_PREFETCH_STAGE {
                PrefetchRead(v2c + e.first);
                PrefetchRead(v2c + e.second);
                PrefetchRead(degree_data + e.first);
                PrefetchRead(degree_data + e.second);
              },
              [&](const Edge& e) TPSL_PREFETCH_STAGE {
                const ClusterId cu =
                    v2c[e.first].load(std::memory_order_relaxed);
                const ClusterId cv =
                    v2c[e.second].load(std::memory_order_relaxed);
                PrefetchRead(vol + (cu == kInvalidCluster ? e.first : cu));
                PrefetchRead(vol + (cv == kInvalidCluster ? e.second : cv));
              },
              [&state](const Edge& e) { state.ProcessEdge(e); });
          return Status::OK();
        }));
  }

  // Compaction is shared with the sequential pass: renumber labels by
  // first member in vertex-scan order and recompute volumes from
  // member degrees. Labels here are vertex ids, but the renumbering
  // only depends on which vertices share a label, so the output is the
  // same dense Clustering either way.
  Clustering result;
  result.vertex_cluster.assign(num_vertices, kInvalidCluster);
  std::vector<ClusterId> remap(num_vertices, kInvalidCluster);
  for (VertexId v = 0; v < num_vertices; ++v) {
    const ClusterId old_id = state.v2c[v].load(std::memory_order_relaxed);
    if (old_id == kInvalidCluster) {
      continue;  // Vertex never appeared in the stream.
    }
    if (remap[old_id] == kInvalidCluster) {
      remap[old_id] = static_cast<ClusterId>(result.cluster_volumes.size());
      result.cluster_volumes.push_back(0);
    }
    const ClusterId new_id = remap[old_id];
    result.vertex_cluster[v] = new_id;
    result.cluster_volumes[new_id] += degrees.degree(v);
  }
  return result;
}

}  // namespace tpsl
