#include "partition/metrics.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace tpsl {

PartitionQuality ComputeQuality(const std::vector<std::vector<Edge>>& parts) {
  PartitionQuality quality;
  quality.partition_sizes.reserve(parts.size());

  uint64_t total_cover = 0;
  std::unordered_set<VertexId> global_vertices;
  std::unordered_set<VertexId> cover;
  for (const std::vector<Edge>& part : parts) {
    cover.clear();
    for (const Edge& e : part) {
      cover.insert(e.first);
      cover.insert(e.second);
      global_vertices.insert(e.first);
      global_vertices.insert(e.second);
    }
    total_cover += cover.size();
    quality.partition_sizes.push_back(part.size());
    quality.num_edges += part.size();
  }

  quality.num_covered_vertices = global_vertices.size();
  if (!global_vertices.empty()) {
    quality.replication_factor =
        static_cast<double>(total_cover) /
        static_cast<double>(global_vertices.size());
  }
  if (!quality.partition_sizes.empty()) {
    quality.max_partition_size = *std::max_element(
        quality.partition_sizes.begin(), quality.partition_sizes.end());
    quality.min_partition_size = *std::min_element(
        quality.partition_sizes.begin(), quality.partition_sizes.end());
    if (quality.num_edges > 0) {
      const double expected = static_cast<double>(quality.num_edges) /
                              static_cast<double>(parts.size());
      quality.measured_alpha =
          static_cast<double>(quality.max_partition_size) / expected;
    }
  }
  return quality;
}

PartitionQuality QualityFromTallies(uint64_t total_replicas,
                                    uint64_t covered_vertices,
                                    std::vector<uint64_t> loads) {
  PartitionQuality quality;
  for (const uint64_t load : loads) {
    quality.num_edges += load;
  }
  quality.num_covered_vertices = covered_vertices;
  if (covered_vertices > 0) {
    quality.replication_factor = static_cast<double>(total_replicas) /
                                 static_cast<double>(covered_vertices);
  }
  if (!loads.empty()) {
    quality.max_partition_size = *std::max_element(loads.begin(), loads.end());
    quality.min_partition_size = *std::min_element(loads.begin(), loads.end());
    if (quality.num_edges > 0) {
      const double expected = static_cast<double>(quality.num_edges) /
                              static_cast<double>(loads.size());
      quality.measured_alpha =
          static_cast<double>(quality.max_partition_size) / expected;
    }
  }
  quality.partition_sizes = std::move(loads);
  return quality;
}

Status ValidatePartitioning(const std::vector<std::vector<Edge>>& parts,
                            uint64_t expected_edges, uint64_t capacity) {
  uint64_t total = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].size() > capacity) {
      return Status::FailedPrecondition(
          "partition " + std::to_string(i) + " holds " +
          std::to_string(parts[i].size()) + " edges, capacity " +
          std::to_string(capacity));
    }
    total += parts[i].size();
  }
  if (total != expected_edges) {
    return Status::FailedPrecondition(
        "assigned " + std::to_string(total) + " edges, expected " +
        std::to_string(expected_edges));
  }
  return Status::OK();
}

}  // namespace tpsl
