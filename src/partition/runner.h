#ifndef TPSL_PARTITION_RUNNER_H_
#define TPSL_PARTITION_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/edge_stream.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace tpsl {

/// Where a spilled run's partitions landed on disk: one binary edge
/// list per partition plus a plain-text manifest, written by the
/// PartitionedWriter spill sink as assignments streamed through.
struct SpillInfo {
  /// `<spill_dir>/<spill_stem>`; files are `<prefix>.part<i>.bin` and
  /// `<prefix>.manifest`. Empty when the run did not spill.
  std::string prefix;
  std::vector<std::string> partition_paths;
  std::vector<uint64_t> edge_counts;
  uint64_t bytes_written = 0;

  bool spilled() const { return !prefix.empty(); }
};

/// One timed, measured partitioning run: what every experiment and
/// example needs. Wraps Partitioner::Partition with a wall timer and a
/// composable sink pipeline — contract validation by default, plus
/// opt-in materialization and disk spill sinks — and reports the run's
/// quality (never from an edge list; see RunPartitioner).
struct RunResult {
  std::string partitioner_name;
  PartitionQuality quality;
  PartitionStats stats;
  double wall_seconds = 0.0;
  /// Per-partition edge lists (moved out of the sink). Empty unless
  /// `keep_partitions` was set.
  std::vector<std::vector<Edge>> partitions;
  /// On-disk partition files. Unset unless `spill_dir` was set.
  SpillInfo spill;
};

struct RunOptions {
  /// Add an EdgeListSink to the pipeline and retain the materialized
  /// partitions in the result. Explicit opt-in: costs O(|E|) memory,
  /// which defeats the out-of-core measurement path — prefer
  /// `spill_dir` + OpenSpilledPartitions for downstream processing.
  bool keep_partitions = false;
  /// Fail the run if an edge is lost/duplicated or the hard balance
  /// cap is violated (checked online as assignments arrive when the
  /// stream publishes an edge-count hint).
  bool validate = true;
  /// Non-empty: add a PartitionedWriter spill sink that streams every
  /// assignment to one binary edge list per partition under this
  /// directory (created if missing). RunResult::spill describes the
  /// files.
  std::string spill_dir;
  /// File-name stem for the spilled partition files.
  std::string spill_stem = "partitions";
};

/// Runs `partitioner` on `stream` and returns measurements.
///
/// Where the quality comes from: a partitioner whose reports_quality()
/// is true (the 2PS cores, HDRF, Greedy) computes it at the end of
/// Partition() from its own replica table and loads, and the runner
/// takes PartitionStats::quality — one O(|V|·k) table per run, as the
/// paper counts it. For every other partitioner the runner attaches a
/// StreamingQualitySink that rebuilds the replica state from the
/// assignments. Both paths end in QualityFromTallies, and the property
/// suite holds both to the ComputeQuality oracle exactly. Either way
/// the `quality.*` gauges are set from the final quality.
///
/// Validation runs single-pass in a ValidatingSink while assignments
/// stream through — the default path holds no edge lists, so
/// out-of-core runs stay out of core end to end. At threads > 1 the
/// sinks sit behind one AsyncHandoffSink, so no sink keeps per-worker
/// state. `stats.state_bytes` covers the whole run: partitioner state
/// plus sink-side state (a quality sink's bitsets, writer buffers,
/// opted-in edge lists); the sink-side part does not depend on the
/// thread count.
StatusOr<RunResult> RunPartitioner(Partitioner& partitioner,
                                   EdgeStream& stream,
                                   const PartitionConfig& config,
                                   const RunOptions& options = {});

/// Opens every spilled partition file as a buffered EdgeStream, in
/// partition order — the hand-off from a spilled run to disk-backed
/// distributed processing (procsim).
StatusOr<std::vector<std::unique_ptr<EdgeStream>>> OpenSpilledPartitions(
    const SpillInfo& spill);

/// Non-owning view for APIs that take a span of streams.
std::vector<EdgeStream*> StreamPointers(
    const std::vector<std::unique_ptr<EdgeStream>>& streams);

/// Best-effort deletion of the spilled files and manifest.
void RemoveSpilledFiles(const SpillInfo& spill);

}  // namespace tpsl

#endif  // TPSL_PARTITION_RUNNER_H_
