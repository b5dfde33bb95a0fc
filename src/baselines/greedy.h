#ifndef TPSL_BASELINES_GREEDY_H_
#define TPSL_BASELINES_GREEDY_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// PowerGraph's Greedy streaming heuristic (Gonzalez et al., OSDI'12).
/// Case analysis on the replica sets A(u), A(v) of an edge's endpoints:
///   1. A(u) ∩ A(v) != ∅  -> least-loaded common partition
///   2. both non-empty     -> least-loaded partition in A(u) ∪ A(v)
///   3. one non-empty      -> least-loaded partition in that set
///   4. both empty         -> least-loaded partition overall
/// Stateful, single pass, O(|E|·k) time, O(|V|·k) space. Enforces the
/// hard balance cap by excluding full partitions from every case.
class GreedyPartitioner : public Partitioner {
 public:
  std::string name() const override { return "Greedy"; }

  /// Every delivered edge is one ScoreTables::Commit.
  bool reports_quality() const override { return true; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_GREEDY_H_
