// Shared plumbing of the perfbench binary: clocks, process counters,
// order statistics, the benchmark's own span recorder, and the result
// record every workload fills in.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock (std::chrono::steady_clock).
uint64_t NowNanos();
inline double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

/// CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

/// Resets the kernel's resident-set high-water mark (VmHWM) to the
/// current RSS, so PeakRssMb() covers only what follows. `trim_heap`
/// first returns the heap's free memory, so the mark starts from live
/// memory rather than from what the allocator happened to keep.
void ResetPeakRss(bool trim_heap = true);
double PeakRssMb();

/// 1-minute load average from /proc/loadavg (-1 when unreadable).
double LoadAverage1m();

/// Median of the values (mean of the two middle ones for even sizes).
double Median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1], of the values.
double Quantile(std::vector<double> values, double q);

/// Median cost of one NowNanos() call, measured back to back.
double ClockOverheadNanos();

/// Nanoseconds per dependent load in a random cycle over 16 MiB: how
/// contended the host's shared memory system is right now. The library
/// is memory-bound, so this explains shifts that no code change made.
double MemoryLatencyProbeNanos();

/// One closed interval on one thread. `parent` is 0 for a root span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  const char* category = "";  // the layer: ingest, io, core, ...
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// In-memory span recorder written out as a Chrome trace when the run
/// ends. Spans are recorded around the benchmark's calls into each
/// library layer, never inside the library. Disabled, it records
/// nothing and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Reserves a span id (0 when disabled).
  uint64_t NewId();

  /// Adds finished spans (thread-safe; worker threads batch theirs).
  void Add(const SpanRecord& span);
  void AddAll(const std::vector<SpanRecord>& spans);

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool WriteChromeTrace(const std::string& path) const;

  /// Self time per category: each span's duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, double> SelfSecondsByCategory() const;

 private:
  std::vector<SpanRecord> Spans() const;

  const bool enabled_;
  mutable std::mutex mutex_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread; nests under the thread's innermost
/// open ScopedSpan. Spans shorter than the clock resolution still get
/// recorded, with zero duration.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* category);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Wall seconds since the span opened (valid with tracing off too).
  double ElapsedSeconds() const;

 private:
  Tracer& tracer_;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

/// Small integer id of the calling thread, stable for its lifetime.
uint32_t ThreadIndex();

/// What a run reports: the four keys of the final line plus the info
/// printed on the line before it.
class Result {
 public:
  /// A non-finite value is a failed check (it has no JSON spelling).
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);

  /// Counts one attempted operation or correctness check; a failed one
  /// also marks the run incorrect and is reported on stderr.
  void Attempt(bool ok, const std::string& what);

  /// Counts `n` operations that completed without error.
  void Succeeded(uint64_t n) { attempted_ += n; }

  /// Prints the info line, then the result line (the last line).
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // JSON values
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Shortest round-trip text of a double ("17 significant digits").
std::string FormatDouble(double value);

/// Space-separated values when there are at most 32 of them, else
/// "min p25 p50 p75 max".
std::string JoinValues(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
