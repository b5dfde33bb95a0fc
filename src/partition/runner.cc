#include "partition/runner.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "graph/binary_edge_list.h"
#include "io/edge_file.h"
#include "obs/trace.h"
#include "partition/assignment_sink.h"
#include "partition/partitioned_writer.h"
#include "partition/sink_pipeline.h"
#include "util/timer.h"

namespace tpsl {

StatusOr<RunResult> RunPartitioner(Partitioner& partitioner,
                                   EdgeStream& stream,
                                   const PartitionConfig& config,
                                   const RunOptions& options) {
  RunResult result;
  result.partitioner_name = partitioner.name();

  const uint32_t k = config.num_partitions;
  const uint64_t hint = stream.NumEdgesHint();
  const bool cap_enforced = partitioner.enforces_balance_cap();

  // The sink pipeline: quality unless the partitioner reports its own
  // (a quality sink would only keep a second copy of its replica
  // table), validation unless disabled, materialization and spill on
  // request. Everything is single-pass — each assignment fans out once
  // through the tee as it is made.
  //
  // Shape depends on the run's parallelism. threads == 1: the sinks
  // hang directly off one tee, delivered in stream order (the
  // byte-identity contract). threads > 1: the same tee moves behind a
  // bounded handoff queue, so the pipeline reports ConcurrentSafe and
  // the scoring pass never takes a sink mutex — sink consumption
  // overlaps scoring instead of serializing it, and no sink keeps
  // per-worker state.
  const uint32_t threads = config.exec.ResolveThreads();
  std::optional<StreamingQualitySink> quality_sink;
  ValidatingSink validating_sink(
      k, options.validate && cap_enforced && hint != 0
             ? config.PartitionCapacity(hint)
             : ValidatingSink::kNoCapacity);
  TeeSink consumers;
  if (!partitioner.reports_quality()) {
    quality_sink.emplace(k);
    consumers.Add(&*quality_sink);
  }
  if (options.validate) {
    consumers.Add(&validating_sink);
  }
  std::optional<EdgeListSink> keep_sink;
  if (options.keep_partitions) {
    keep_sink.emplace(k);
    consumers.Add(&*keep_sink);
  }
  // A failed spill run must not leave partial partition files behind:
  // the error Status carries no SpillInfo, so no caller could clean
  // them up. Armed on spill creation, disarmed on success; declared
  // before the writer so it fires after the files are closed.
  struct SpillCleanup {
    SpillInfo files;
    bool armed = false;
    ~SpillCleanup() {
      if (armed) {
        RemoveSpilledFiles(files);
      }
    }
  } spill_cleanup;
  std::optional<PartitionedWriter> spill_sink;
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
    if (ec) {
      return Status::IoError("cannot create spill dir " + options.spill_dir +
                             ": " + ec.message());
    }
    const std::string prefix =
        (std::filesystem::path(options.spill_dir) / options.spill_stem)
            .string();
    spill_sink.emplace(prefix, k);
    TPSL_RETURN_IF_ERROR(spill_sink->status());
    consumers.Add(&*spill_sink);
    spill_cleanup.files.prefix = prefix;
    for (PartitionId p = 0; p < k; ++p) {
      spill_cleanup.files.partition_paths.push_back(
          spill_sink->PartitionPath(p));
    }
    spill_cleanup.armed = true;
  }
  AssignmentSink* pipeline = &consumers;
  std::optional<AsyncHandoffSink> handoff;
  if (threads > 1 && consumers.num_sinks() > 0) {
    // Bound the queue at a few chunks per worker: enough slack that a
    // slow spill write does not stall scoring, small enough that
    // back-pressure (not memory) absorbs a persistently slow consumer.
    handoff.emplace(&consumers, /*max_queued_chunks=*/4 * threads);
    pipeline = &*handoff;
  }

  WallTimer timer;
  {
    obs::TraceSpan span("partition.run", "partition");
    TPSL_RETURN_IF_ERROR(
        partitioner.Partition(stream, config, *pipeline, &result.stats));
  }
  if (handoff) {
    // Drain the queue and park the drainer before any downstream state
    // (validation status, spill manifests, materialized partitions) is
    // read. Part of the measured run: the work was deferred, not free.
    obs::TraceSpan span("partition.handoff_drain", "partition");
    handoff->Finish();
  }
  // Some partitioners drive Next() manually instead of via ForEachEdge;
  // a stream that failed mid-pass looks like a short EOF to them.
  TPSL_RETURN_IF_ERROR(stream.Health());
  // Same for the sinks: Assign() has no error channel, so a spill
  // writer that hit a full disk (or an async handoff whose downstream
  // died) latched the failure in Health(). Check before trusting any
  // downstream state.
  TPSL_RETURN_IF_ERROR(pipeline->Health());
  // Whole-run state: the partitioner's own accounting plus the live
  // sink-side state (a quality sink's bitsets, writer buffers, any
  // opted-in edge lists) — snapshot before Finish() releases the
  // writer. The handoff reports its downstream tee, so the figure does
  // not depend on the thread count.
  result.stats.state_bytes += pipeline->StateBytes();
  // Report a mid-stream capacity violation before paying for the spill
  // manifest: the run is already known invalid.
  if (options.validate) {
    TPSL_RETURN_IF_ERROR(validating_sink.status());
  }
  if (spill_sink) {
    obs::TraceSpan span("partition.finish", "partition");
    TPSL_RETURN_IF_ERROR(spill_sink->Finish());
  }
  result.wall_seconds = timer.ElapsedSeconds();

  if (quality_sink) {
    result.quality = quality_sink->Quality();
  } else if (result.stats.quality) {
    result.quality = *result.stats.quality;
  } else {
    return Status::Internal(result.partitioner_name +
                            " reports quality but left stats.quality unset");
  }
  PublishQualityGauges(result.quality);
  if (options.validate) {
    // Always check that every edge was assigned; check the hard cap
    // only for partitioners that promise it (stateless hashing does
    // not — the paper reports their measured α instead).
    const uint64_t expected_edges =
        hint != 0 ? hint : result.quality.num_edges;
    const uint64_t capacity = cap_enforced
                                  ? config.PartitionCapacity(expected_edges)
                                  : ValidatingSink::kNoCapacity;
    TPSL_RETURN_IF_ERROR(validating_sink.Finish(expected_edges, capacity));
  }
  if (keep_sink) {
    result.partitions = keep_sink->TakePartitions();
  }
  if (spill_sink) {
    spill_cleanup.armed = false;  // success: the files are the result
    result.spill = std::move(spill_cleanup.files);
    result.spill.edge_counts = spill_sink->edge_counts();
    result.spill.bytes_written = spill_sink->bytes_written();
  }
  return result;
}

StatusOr<std::vector<std::unique_ptr<EdgeStream>>> OpenSpilledPartitions(
    const SpillInfo& spill) {
  if (!spill.spilled()) {
    return Status::FailedPrecondition(
        "run did not spill (set RunOptions::spill_dir)");
  }
  std::vector<std::unique_ptr<EdgeStream>> streams;
  streams.reserve(spill.partition_paths.size());
  for (const std::string& path : spill.partition_paths) {
    // Sniffing open: spilled files are compressed edge-block files
    // today, but manifests written by older runs (raw fixed-width
    // pairs) stay readable.
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> stream,
                          io::OpenEdgeFile(path));
    streams.push_back(std::move(stream));
  }
  return streams;
}

std::vector<EdgeStream*> StreamPointers(
    const std::vector<std::unique_ptr<EdgeStream>>& streams) {
  std::vector<EdgeStream*> pointers;
  pointers.reserve(streams.size());
  for (const std::unique_ptr<EdgeStream>& stream : streams) {
    pointers.push_back(stream.get());
  }
  return pointers;
}

void RemoveSpilledFiles(const SpillInfo& spill) {
  for (const std::string& path : spill.partition_paths) {
    std::remove(path.c_str());
  }
  if (spill.spilled()) {
    std::remove((spill.prefix + ".manifest").c_str());
  }
}

}  // namespace tpsl
