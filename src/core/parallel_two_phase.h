#ifndef TPSL_CORE_PARALLEL_TWO_PHASE_H_
#define TPSL_CORE_PARALLEL_TWO_PHASE_H_

#include <string>

#include "core/streaming_clustering.h"
#include "partition/partitioner.h"

namespace tpsl {

/// Parallel 2PS-L — the CuSP-style parallelization the paper sketches
/// in its related-work discussion: the degree count stays sequential
/// (one cheap counting pass), while the Phase-1 clustering pass and
/// both Phase-2 streaming passes run on the shared execution engine
/// (exec::ParallelForEdges over config.exec's thread pool) — clustering
/// over relaxed-atomic volume/membership state, scoring against a
/// shared atomic replication table.
///
/// Thread count and batch size come from PartitionConfig::exec; with
/// exec.threads == 1 the engine degrades to an in-order inline loop and
/// the partitioner's per-edge decisions match sequential
/// TwoPhasePartitioner bit for bit (the determinism test relies on
/// this).
///
/// As the paper notes, "staleness in state synchronization of multiple
/// partitioner instances can lead to lower partitioning quality": with
/// threads > 1, workers observe slightly stale replication bits, so the
/// replication factor is marginally above the sequential algorithm's,
/// and the assignment emission order is nondeterministic. The hard
/// balance cap is still enforced exactly (loads are claimed with CAS
/// before an edge is committed).
class ParallelTwoPhasePartitioner : public Partitioner {
 public:
  enum class ScoringMode {
    kLinear,  // 2PS-L two-candidate score: ns per edge, little to gain
    kHdrf,    // 2PS-HDRF all-k score: O(k) per edge, parallelizes well
  };

  struct Options {
    ClusteringConfig clustering;
    bool use_cluster_volume_term = true;
    /// Which scoring runs in the parallel pass. Linear scoring is so
    /// cheap that the serialized stream reader bounds throughput
    /// (Amdahl); HDRF scoring is where parallel workers pay off — the
    /// regime CuSP targets.
    ScoringMode scoring = ScoringMode::kLinear;
    /// λ of the HDRF balance term (kHdrf mode).
    double hdrf_lambda = 1.1;
  };

  ParallelTwoPhasePartitioner() = default;
  explicit ParallelTwoPhasePartitioner(Options options) : options_(options) {}

  std::string name() const override {
    return options_.scoring == ScoringMode::kLinear ? "2PS-L(par)"
                                                    : "2PS-HDRF(par)";
  }

  /// Every delivered edge claims one load slot and sets its two bits in
  /// the shared atomic matrix; after the pass that matrix is the exact
  /// merged replica state at any thread count.
  bool reports_quality() const override { return true; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;

 private:
  Options options_;
};

}  // namespace tpsl

#endif  // TPSL_CORE_PARALLEL_TWO_PHASE_H_
