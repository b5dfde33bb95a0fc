#include "support.h"

#include <malloc.h>
#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local uint64_t current_span = 0;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ResetPeakRss(bool trim_heap) {
  if (trim_heap) {
    malloc_trim(0);
  }
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double LoadAverage1m() {
  std::ifstream loadavg("/proc/loadavg");
  double value = -1.0;
  if (!(loadavg >> value)) {
    return -1.0;
  }
  return value;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(values.size())) {
    ++rank;
  }
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double ClockOverheadNanos() {
  std::vector<double> deltas(4096);
  for (double& delta : deltas) {
    const uint64_t a = NowNanos();
    const uint64_t b = NowNanos();
    delta = static_cast<double>(b - a);
  }
  return Median(std::move(deltas));
}

double MemoryLatencyProbeNanos() {
  constexpr uint32_t kSlots = 1u << 22;  // 16 MiB of uint32_t
  constexpr uint32_t kLoads = 1u << 20;
  // Mapped directly rather than through malloc: freeing a block this
  // large would raise glibc's mmap threshold and change how the
  // workload's own allocations reach the heap, and so its peak RSS.
  const size_t bytes = sizeof(uint32_t) * kSlots;
  void* mapping = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    return -1.0;
  }
  uint32_t* next = static_cast<uint32_t*>(mapping);
  for (uint32_t i = 0; i < kSlots; ++i) {
    next[i] = i;
  }
  // Sattolo's shuffle makes one cycle through every slot.
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t j = static_cast<uint32_t>((state >> 33) % i);
    std::swap(next[i], next[j]);
  }
  std::vector<double> per_load;
  uint32_t at = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t start = NowNanos();
    for (uint32_t n = 0; n < kLoads; ++n) {
      at = next[at];
    }
    per_load.push_back(static_cast<double>(NowNanos() - start) / kLoads);
  }
  munmap(mapping, bytes);
  // `at` depends on every load; fold it in so none can be elided.
  return Median(std::move(per_load)) + (at == kSlots ? 1.0 : 0.0);
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

uint64_t Tracer::NewId() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Add(const SpanRecord& span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::AddAll(const std::vector<SpanRecord>& spans) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  uint64_t origin = ~uint64_t{0};
  for (const SpanRecord& span : spans) {
    origin = std::min(origin, span.start_ns);
  }
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", JsonString(span.name).c_str(),
                 JsonString(span.category).c_str(), span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.id, span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::map<std::string, double> Tracer::SelfSecondsByCategory() const {
  const std::vector<SpanRecord> spans = Spans();
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  std::map<std::string, double> self;
  for (const SpanRecord& span : spans) {
    // Union of the child intervals clipped to this span: children of a
    // span may run on other threads and overlap each other.
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const uint64_t begin = std::max(child->start_ns, span.start_ns);
        const uint64_t end = std::min(child->end_ns, span.end_ns);
        if (begin < end) {
          covered.emplace_back(begin, end);
        }
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t covered_ns = 0;
    uint64_t reach = span.start_ns;
    for (const auto& [begin, end] : covered) {
      const uint64_t from = std::max(begin, reach);
      if (end > from) {
        covered_ns += end - from;
        reach = end;
      }
    }
    self[span.category] +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) * 1e-9;
  }
  return self;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, const char* category)
    : tracer_(tracer) {
  record_.name = name;
  record_.category = category;
  record_.start_ns = NowNanos();
  if (tracer_.enabled()) {
    record_.id = tracer_.NewId();
    record_.parent = current_span;
    record_.thread = ThreadIndex();
    saved_parent_ = current_span;
    current_span = record_.id;
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_.enabled()) {
    record_.end_ns = NowNanos();
    current_span = saved_parent_;
    tracer_.Add(record_);
  }
}

double ScopedSpan::ElapsedSeconds() const {
  return static_cast<double>(NowNanos() - record_.start_ns) * 1e-9;
}

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JoinValues(const std::vector<double>& values) {
  std::vector<double> shown = values;
  if (values.size() > 32) {
    shown = {Quantile(values, 0.0), Quantile(values, 0.25),
             Quantile(values, 0.5), Quantile(values, 0.75),
             Quantile(values, 1.0)};
  }
  std::string joined;
  for (const double value : shown) {
    if (!joined.empty()) {
      joined += ' ';
    }
    joined += FormatDouble(value);
  }
  return joined;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Attempt(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::Info(const std::string& key, double value) {
  info_.emplace_back(key, std::isfinite(value) ? FormatDouble(value) : "null");
}

void Result::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, JsonString(value));
}

void Result::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
}

void Result::Print() const {
  std::ostringstream info;
  info << "{\"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    info << (i == 0 ? "" : ", ") << JsonString(info_[i].first) << ": "
         << info_[i].second;
  }
  info << "}}";
  std::ostringstream line;
  line << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    line << (i == 0 ? "" : ", ") << JsonString(name)
         << ": {\"value\": " << FormatDouble(value_unit.first)
         << ", \"unit\": " << JsonString(value_unit.second) << "}";
  }
  line << "}}";
  std::printf("%s\n%s\n", info.str().c_str(), line.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
