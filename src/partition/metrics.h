#ifndef TPSL_PARTITION_METRICS_H_
#define TPSL_PARTITION_METRICS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Quality of a finished edge partitioning, recomputed from scratch
/// from the materialized per-partition edge lists (independent of any
/// partitioner-internal bookkeeping, so it doubles as an oracle in
/// tests).
struct PartitionQuality {
  /// RF = (1/|V|) Σ_i |V(p_i)| over non-isolated vertices (paper §II-A).
  double replication_factor = 0.0;

  /// Measured balance: max_i |p_i| / (|E| / k). The paper reports this
  /// as α when a partitioner misses the configured bound.
  double measured_alpha = 0.0;

  uint64_t num_edges = 0;
  uint64_t num_covered_vertices = 0;
  uint64_t max_partition_size = 0;
  uint64_t min_partition_size = 0;
  std::vector<uint64_t> partition_sizes;
};

/// Computes quality from per-partition edge lists.
PartitionQuality ComputeQuality(const std::vector<std::vector<Edge>>& parts);

/// Quality from the integer tallies an online replica state holds at
/// the end of a run: Σ_v replicas(v), the number of vertices with at
/// least one replica, and the per-partition edge loads. The one
/// arithmetic behind every online source — StreamingQualitySink, the
/// ScoreTables kernel and the parallel 2PS core's atomic bit matrix —
/// so equal tallies give bit-identical qualities. ComputeQuality stays
/// separate: it is the oracle those sources are tested against.
PartitionQuality QualityFromTallies(uint64_t total_replicas,
                                    uint64_t covered_vertices,
                                    std::vector<uint64_t> loads);

/// Validates the partitioning contract: every partition within
/// `capacity`, total edges equals `expected_edges`. Returns an error
/// describing the first violation.
Status ValidatePartitioning(const std::vector<std::vector<Edge>>& parts,
                            uint64_t expected_edges, uint64_t capacity);

}  // namespace tpsl

#endif  // TPSL_PARTITION_METRICS_H_
