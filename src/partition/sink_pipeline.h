#ifndef TPSL_PARTITION_SINK_PIPELINE_H_
#define TPSL_PARTITION_SINK_PIPELINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "partition/assignment_sink.h"
#include "partition/metrics.h"
#include "partition/replication_table.h"
#include "util/status.h"

namespace tpsl {

/// Computes PartitionQuality online, one assignment at a time: per
/// partition edge loads plus vertex replication through a
/// ReplicationTable (per-vertex partition bitsets). O(|V|·k / 8 + |V|)
/// state, never an edge list — the streaming replacement for running
/// ComputeQuality over materialized partitions. ComputeQuality stays
/// as the independent test oracle; the property suite asserts exact
/// (bit-level) agreement on every registry partitioner.
///
/// RunPartitioner attaches it only for partitioners that do not report
/// their own quality (Partitioner::reports_quality): the stateless
/// hashers, and the partitioners whose replica state may hold bits no
/// delivered edge set. For the rest it would be a second copy of the
/// partitioner's own v2p table.
class StreamingQualitySink : public AssignmentSink {
 public:
  /// Every 2^sample_interval_log2 assignments the sink publishes the
  /// running replication factor and max-load skew to obs gauges (and,
  /// when tracing, counter events) — quality *convergence over the
  /// stream*, not just the end state. The per-edge cost of sampling is
  /// one increment and a mask test.
  explicit StreamingQualitySink(uint32_t num_partitions,
                                uint32_t sample_interval_log2 = 16)
      : table_(0, num_partitions),
        loads_(num_partitions, 0),
        sample_mask_((uint64_t{1} << sample_interval_log2) - 1) {}

  void Assign(const Edge& edge, PartitionId partition) override {
    const VertexId top = std::max(edge.first, edge.second);
    table_.GrowVertices(top + 1);
    table_.Set(edge.first, partition);
    table_.Set(edge.second, partition);
    ++loads_[partition];
    if (((++assigned_) & sample_mask_) == 0) {
      SampleQuality();
    }
  }

  /// The quality of everything assigned so far (QualityFromTallies
  /// over the table's tallies and the loads).
  PartitionQuality Quality() const;

  const std::vector<uint64_t>& loads() const { return loads_; }

  uint64_t StateBytes() const override {
    return table_.HeapBytes() + loads_.capacity() * sizeof(uint64_t);
  }

 private:
  /// O(k) + replication-factor scan, every 2^16 edges by default.
  void SampleQuality() const;

  ReplicationTable table_;
  std::vector<uint64_t> loads_;
  const uint64_t sample_mask_;
  uint64_t assigned_ = 0;
};

/// Publishes a run's final replication factor and max-load skew to
/// the `quality.*` gauges (and, when tracing, counter events) that
/// StreamingQualitySink samples mid-stream. RunPartitioner calls it
/// once per run, so the gauges hold the final quality whichever
/// source computed it.
void PublishQualityGauges(const PartitionQuality& quality);

/// Decouples a parallel scoring pass from sequential sink consumers
/// (validation, spill writers, materialization, a quality sink) with a
/// bounded handoff queue: producers enqueue assignment chunks from any
/// thread; a dedicated drainer thread delivers them downstream one
/// chunk at a time, so the downstream sinks keep their single-threaded contract
/// while their work overlaps the scoring pass instead of serializing
/// it. Back-pressure: when the queue is full, producers block until
/// the drainer frees a slot, bounding memory at O(queue × chunk).
///
/// Finish() flushes the queue and joins the drainer; the runner calls
/// it before reading any downstream state (validation status, spill
/// manifests). The destructor also joins, so an error return that
/// skips Finish() cannot leak the thread.
class AsyncHandoffSink : public AssignmentSink {
 public:
  /// `downstream` must outlive the sink; `max_queued_chunks` bounds
  /// the handoff queue (chunks are one AssignBatch call each).
  explicit AsyncHandoffSink(AssignmentSink* downstream,
                            size_t max_queued_chunks = 64);
  ~AsyncHandoffSink() override;

  void Assign(const Edge& edge, PartitionId partition) override {
    const Assignment one{edge, partition};
    AssignBatch(&one, 1);
  }

  void AssignBatch(const Assignment* batch, size_t count) override;

  bool ConcurrentSafe() const override { return true; }

  /// Drains everything enqueued so far into the downstream sink and
  /// stops the drainer thread. Idempotent; after Finish() the
  /// downstream state is complete and safe to read single-threaded.
  void Finish();

  /// Downstream failures propagate through the handoff: the drainer
  /// re-checks the downstream's Health() after every delivered chunk
  /// and latches the first error here, so a producer polling mid-pass
  /// (or the runner after the pass) sees a spill-writer failure even
  /// though delivery happens on another thread. When no drainer is in
  /// flight the downstream is quiescent and is queried directly.
  Status Health() const override;

  uint64_t StateBytes() const override;

 private:
  void DrainLoop();

  AssignmentSink* const downstream_;
  const size_t max_queued_chunks_;

  mutable std::mutex mutex_;
  Status health_;  // first downstream error seen by the drainer
  std::condition_variable producer_cv_;  // queue has space
  std::condition_variable drainer_cv_;   // queue has work (or stop)
  std::deque<std::vector<Assignment>> queue_;
  bool stop_ = false;
  bool started_ = false;
  std::thread drainer_;
};

/// Enforces the partitioning contract as assignments arrive: when the
/// per-partition capacity is known up front (the stream published an
/// edge-count hint), the first over-capacity assignment latches a
/// FailedPrecondition, pinning the violation to the exact assignment
/// that caused it. Sinks cannot abort the partitioner, so the pass
/// still completes; the runner reports the latched status as soon as
/// the pass ends (before finalizing any spill output). Finish()
/// settles the parts that need the final totals: every edge assigned
/// exactly once, and the capacity re-check for hint-less streams
/// whose cap could only be computed at the end.
class ValidatingSink : public AssignmentSink {
 public:
  /// `streaming_capacity` is the hard per-partition cap to enforce
  /// online, or kNoCapacity when it cannot be known before the end of
  /// the stream.
  static constexpr uint64_t kNoCapacity = ~uint64_t{0};

  ValidatingSink(uint32_t num_partitions, uint64_t streaming_capacity)
      : capacity_(streaming_capacity), loads_(num_partitions, 0) {}

  void Assign(const Edge& edge, PartitionId partition) override;

  /// One loop over the batch; latches the same first violation as
  /// per-edge Assign() calls would.
  void AssignBatch(const Assignment* batch, size_t count) override;

  /// First violation observed while streaming (sticky), OK otherwise.
  const Status& status() const { return status_; }

  /// Final contract check: total assignments equal `expected_edges`
  /// and every partition is within `capacity`. Returns the sticky
  /// streaming violation first if one was latched.
  Status Finish(uint64_t expected_edges, uint64_t capacity) const;

  const std::vector<uint64_t>& loads() const { return loads_; }

  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t load : loads_) sum += load;
    return sum;
  }

  uint64_t StateBytes() const override {
    return loads_.capacity() * sizeof(uint64_t);
  }

 private:
  uint64_t capacity_;
  std::vector<uint64_t> loads_;
  Status status_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_SINK_PIPELINE_H_
