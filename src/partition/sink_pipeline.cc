#include "partition/sink_pipeline.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpsl {

namespace {

obs::Gauge* ReplicationFactorGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Default().GetGauge(
      "quality.replication_factor");
  return gauge;
}

obs::Gauge* MaxLoadSkewGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Default().GetGauge("quality.max_load_skew");
  return gauge;
}

obs::Histogram* QualitySampleHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Default().GetHistogram(
      "sink.quality_sample_seconds");
  return hist;
}

}  // namespace

void PublishQualityGauges(const PartitionQuality& quality) {
  ReplicationFactorGauge()->Set(quality.replication_factor);
  MaxLoadSkewGauge()->Set(quality.measured_alpha);
  obs::EmitCounter("quality.replication_factor", quality.replication_factor);
  obs::EmitCounter("quality.max_load_skew", quality.measured_alpha);
}

void StreamingQualitySink::SampleQuality() const {
  const int64_t start_ns = obs::TraceNowNanos();
  PublishQualityGauges(Quality());
  QualitySampleHist()->RecordNanos(
      static_cast<uint64_t>(obs::TraceNowNanos() - start_ns));
}

PartitionQuality StreamingQualitySink::Quality() const {
  return QualityFromTallies(table_.TotalReplicas(), table_.CoveredVertices(),
                            loads_);
}

AsyncHandoffSink::AsyncHandoffSink(AssignmentSink* downstream,
                                   size_t max_queued_chunks)
    : downstream_(downstream),
      max_queued_chunks_(max_queued_chunks > 0 ? max_queued_chunks : 1) {}

AsyncHandoffSink::~AsyncHandoffSink() { Finish(); }

void AsyncHandoffSink::AssignBatch(const Assignment* batch, size_t count) {
  if (count == 0) {
    return;
  }
  std::vector<Assignment> chunk(batch, batch + count);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) {
    started_ = true;
    drainer_ = std::thread([this]() { DrainLoop(); });
  }
  producer_cv_.wait(lock, [this]() {
    return queue_.size() < max_queued_chunks_;
  });
  queue_.push_back(std::move(chunk));
  lock.unlock();
  drainer_cv_.notify_one();
}

void AsyncHandoffSink::DrainLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    drainer_cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stop_ and drained: everything delivered
    }
    std::vector<Assignment> chunk = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    producer_cv_.notify_one();
    downstream_->AssignBatch(chunk.data(), chunk.size());
    lock.lock();
    if (health_.ok()) {
      // The drainer is the only thread touching the downstream during
      // a pass, so this is the one place its failure can be observed
      // promptly.
      health_ = downstream_->Health();
    }
  }
}

Status AsyncHandoffSink::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!health_.ok()) {
    return health_;
  }
  if (!started_) {
    // No drainer in flight (never started, or joined by Finish): the
    // downstream is quiescent and safe to inspect directly.
    return downstream_->Health();
  }
  return health_;
}

void AsyncHandoffSink::Finish() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    if (started_) {
      to_join = std::move(drainer_);
      started_ = false;
    }
  }
  drainer_cv_.notify_one();
  if (to_join.joinable()) {
    to_join.join();
  }
  // A late AssignBatch after Finish (none in the runner's sequencing)
  // still delivers: it restarts the drainer, which drains and exits on
  // the sticky stop_; the destructor's Finish joins it.
}

uint64_t AsyncHandoffSink::StateBytes() const {
  // The queue is transient back-pressure memory, not algorithm state;
  // report the downstream sinks, which are the pipeline's real
  // footprint.
  return downstream_->StateBytes();
}

namespace {

Status CapacityViolation(PartitionId partition, uint64_t capacity) {
  return Status::FailedPrecondition(
      "partition " + std::to_string(partition) + " exceeded capacity " +
      std::to_string(capacity) + " mid-stream");
}

}  // namespace

void ValidatingSink::Assign(const Edge& /*edge*/, PartitionId partition) {
  const uint64_t load = ++loads_[partition];
  if (load > capacity_ && status_.ok()) {
    status_ = CapacityViolation(partition, capacity_);
  }
}

void ValidatingSink::AssignBatch(const Assignment* batch, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const PartitionId partition = batch[i].partition;
    if (++loads_[partition] > capacity_ && status_.ok()) {
      status_ = CapacityViolation(partition, capacity_);
    }
  }
}

Status ValidatingSink::Finish(uint64_t expected_edges,
                              uint64_t capacity) const {
  TPSL_RETURN_IF_ERROR(status_);
  uint64_t total = 0;
  for (size_t p = 0; p < loads_.size(); ++p) {
    if (loads_[p] > capacity) {
      return Status::FailedPrecondition(
          "partition " + std::to_string(p) + " holds " +
          std::to_string(loads_[p]) + " edges, capacity " +
          std::to_string(capacity));
    }
    total += loads_[p];
  }
  if (total != expected_edges) {
    return Status::FailedPrecondition(
        "assigned " + std::to_string(total) + " edges, expected " +
        std::to_string(expected_edges));
  }
  return Status::OK();
}

}  // namespace tpsl
