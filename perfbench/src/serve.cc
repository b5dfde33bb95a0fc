// serve_mixed: the online serving tier under mixed traffic. Two
// closed-loop reader threads alternate LookupVertex and RouteEdge on
// Zipf(0.99) keys while one open-loop writer sends AddEdge calls from
// a held-back tail of the graph at a fixed rate (every 8th mutation a
// RemoveEdge of a live edge). One background re-bootstrap forks and is
// adopted inside the measured window.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "graph/in_memory_edge_stream.h"
#include "io/edge_file.h"
#include "serve/partition_service.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tpsl::Edge;
using tpsl::PartitionId;
using tpsl::Status;
using tpsl::StatusOr;
using tpsl::VertexId;
using tpsl::serve::PartitionService;

constexpr uint32_t kPartitions = 32;
constexpr uint32_t kReaders = 2;
constexpr uint32_t kRemovalInterval = 8;
constexpr uint32_t kPublishBatch = 256;
constexpr double kZipfExponent = 0.99;
// One in kSampleInterval reader operations is timed on its own. The
// interval is odd so the samples alternate between the two kinds.
constexpr uint64_t kSampleInterval = 1021;
// One in kSpanInterval timed samples also becomes a trace span.
constexpr uint64_t kSpanInterval = 64;
// Readers stamp the clock every kCheckpointOps measured operations; the
// throughput is the median over kSlices equal slices of the window.
constexpr uint64_t kCheckpointOps = 16384;
constexpr int kSlices = 20;

}  // namespace

const InputSpec& ServeInput() {
  static const InputSpec spec = [] {
    InputSpec s;
    // 2^20 vertices, so the serving table (8 B/vertex at k=32) is
    // 8 MiB, past the 2 MiB per-core L2; 1M edges keep bootstrap near a
    // second and the service's edge ledger to a few hundred MiB.
    s.full = {"serve_rmat", "rmat", 20, 1, 0.57, 0, kDefaultSeed};
    s.full_pin = "fnv1a64:fcc3a6645f7d2960";
    s.tiny = {"serve_rmat_tiny", "rmat", 12, 2, 0.57, 0, kDefaultSeed};
    s.tiny_pin = "fnv1a64:d67a70b3a47b08e3";
    return s;
  }();
  return spec;
}

namespace {

/// Reader phases, advanced by the writer thread.
enum Phase : int {
  kWarmUp = 0,
  kUntracedProbe = 1,  // traced runs only: reference for the overhead
  kTracedProbe = 2,    // traced runs only: same, with lookup spans on
  kMeasure = 3,
  kStop = 4,
};

/// Zipf(kZipfExponent) ranks over [0, n) mapped through a seeded
/// permutation of the vertex ids, so hot keys are scattered over the
/// table. Ranks below `hot_ranks` count as hot.
struct KeyStream {
  std::vector<VertexId> keys;  // power-of-two length
  double hot_share = 0.0;
};

std::vector<KeyStream> MakeKeyStreams(uint64_t seed, VertexId n,
                                      size_t length) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (VertexId r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r) + 1.0, kZipfExponent);
    cdf[r] = sum;
  }
  std::vector<VertexId> permutation(n);
  for (VertexId v = 0; v < n; ++v) {
    permutation[v] = v;
  }
  tpsl::SplitMix64 shuffle(tpsl::HashCombine(seed, 0x5EED));
  for (VertexId i = n - 1; i > 0; --i) {
    std::swap(permutation[i],
              permutation[static_cast<VertexId>(shuffle.NextBounded(i + 1))]);
  }
  const VertexId hot_ranks = std::max<VertexId>(1, n / 100);
  std::vector<KeyStream> streams(kReaders);
  for (uint32_t r = 0; r < kReaders; ++r) {
    tpsl::SplitMix64 rng(tpsl::HashCombine(seed, r + 1));
    KeyStream& stream = streams[r];
    stream.keys.resize(length);
    size_t hot = 0;
    for (VertexId& key : stream.keys) {
      const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * sum;
      const VertexId rank = static_cast<VertexId>(
          std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin(),
                           n - 1));
      hot += rank < hot_ranks;
      key = permutation[rank];
    }
    stream.hot_share = static_cast<double>(hot) / static_cast<double>(length);
  }
  return streams;
}

/// One closed-loop reader thread.
class ReaderThread {
 public:
  ReaderThread(PartitionService& service, const KeyStream& keys,
               const std::atomic<int>& phase, Tracer& tracer)
      : service_(service), keys_(keys), phase_(phase), tracer_(tracer) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ReaderThread() { Join(); }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Valid after Join().
  bool failed = false;
  uint64_t ops[kStop] = {};
  double seconds[kStop] = {};
  uint64_t vertex_lookups = 0;  // kMeasure only
  uint64_t vertex_hits = 0;     // kMeasure only
  std::vector<uint32_t> samples_ns;  // kMeasure only
  std::vector<uint64_t> checkpoints_ns;  // kMeasure only
  std::vector<SpanRecord> spans;
  uint64_t checksum = 0;  // keeps the lookups observable

 private:
  void Loop() {
    auto reader_or = service_.CreateReader();
    if (!reader_or.ok()) {
      failed = true;
      return;
    }
    const std::unique_ptr<PartitionService::Reader> reader =
        std::move(*reader_or);
    const size_t mask = keys_.keys.size() - 1;
    const VertexId* keys = keys_.keys.data();
    uint64_t op = 0;
    uint64_t samples = 0;
    int phase = phase_.load(std::memory_order_acquire);
    uint64_t phase_ops = 0;
    uint64_t phase_start = NowNanos();
    samples_ns.reserve(1 << 20);
    checkpoints_ns.reserve(1 << 16);
    while (phase != kStop) {
      // Both probes time samples like the measured window does, so the
      // probes differ only in the spans.
      const bool timing = phase >= kUntracedProbe;
      const bool tracing = tracer_.enabled() && phase >= kTracedProbe;
      for (int batch = 0; batch < 1024; ++batch, ++op) {
        const size_t j = op & mask;
        const bool sampled = timing && op % kSampleInterval == 0;
        uint64_t start = 0;
        if (sampled) {
          start = NowNanos();
        }
        if ((op & 1) == 0) {
          const tpsl::serve::VertexLookup found = reader->LookupVertex(keys[j]);
          checksum += found.primary;
          if (phase == kMeasure) {
            ++vertex_lookups;
            vertex_hits += found.found;
          }
        } else {
          checksum += reader->RouteEdge(Edge{keys[j], keys[(j + 1) & mask]});
        }
        if (sampled) {
          const uint64_t end = NowNanos();
          if (phase == kMeasure) {
            samples_ns.push_back(static_cast<uint32_t>(
                std::min<uint64_t>(end - start, UINT32_MAX)));
          }
          if (tracing && ++samples % kSpanInterval == 0) {
            SpanRecord span;
            span.id = tracer_.NewId();
            span.name = (op & 1) == 0 ? "serve.lookup_vertex"
                                      : "serve.route_edge";
            span.category = "serve";
            span.start_ns = start;
            span.end_ns = end;
            span.thread = ThreadIndex();
            spans.push_back(span);
          }
        }
      }
      phase_ops += 1024;
      if (phase == kMeasure && phase_ops % kCheckpointOps == 0) {
        checkpoints_ns.push_back(NowNanos());
      }
      const int now_phase = phase_.load(std::memory_order_acquire);
      if (now_phase != phase) {
        const uint64_t now = NowNanos();
        ops[phase] += phase_ops;
        seconds[phase] += static_cast<double>(now - phase_start) * 1e-9;
        phase = now_phase;
        phase_ops = 0;
        phase_start = now;
      }
    }
  }

  PartitionService& service_;
  const KeyStream& keys_;
  const std::atomic<int>& phase_;
  Tracer& tracer_;
  std::thread thread_;
};

/// The graph split into the bootstrap base and the writer's tail.
struct ServeInputData {
  std::vector<Edge> base;
  std::vector<Edge> tail;  // self-loops dropped: AddEdge rejects them
  VertexId num_vertices = 0;
  tpsl::ingest::GenerateFileResult generated;
};

/// Holds back the last edges of the file for the writer: enough for
/// `adds` AddEdge calls plus a margin for the self-loops dropped.
StatusOr<ServeInputData> LoadInput(const RunContext& ctx, bool first,
                                   uint64_t adds) {
  const tpsl::ingest::DatasetRecipe recipe = RecipeFor(ServeInput(), ctx);
  ServeInputData data;
  std::string path;
  TPSL_ASSIGN_OR_RETURN(data.generated, GenerateInput(ctx, recipe, &path));
  if (first) {
    CheckInputPins(ctx, ServeInput(), data.generated.checksum);
    ctx.result->Info("input_checksum", data.generated.checksum);
    ctx.result->Info("input_edges",
                     static_cast<double>(data.generated.num_edges));
  }
  std::vector<Edge> edges;
  {
    ScopedSpan span(*ctx.tracer, "io.read_edge_file", "io");
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<tpsl::EdgeStream> stream,
                          tpsl::io::OpenEdgeFile(path));
    TPSL_RETURN_IF_ERROR(tpsl::ForEachEdge(
        *stream, [&edges](const Edge& e) { edges.push_back(e); }));
  }
  const size_t tail =
      std::min(edges.size() / 2, static_cast<size_t>(adds + adds / 16 + 64));
  data.base.assign(edges.begin(), edges.end() - tail);
  for (auto it = edges.end() - tail; it != edges.end(); ++it) {
    if (it->first != it->second) {
      data.tail.push_back(*it);
    }
  }
  data.num_vertices = static_cast<VertexId>(uint64_t{1} << recipe.scale);
  return data;
}

/// The readers' summed lookup rate in Mops/s: the median over kSlices
/// equal slices of [start, end), so a burst of contention that covers
/// less than half the window does not move it.
double MedianSliceMops(
    const std::vector<std::unique_ptr<ReaderThread>>& readers,
    uint64_t start, uint64_t end) {
  const double slice_ns = static_cast<double>(end - start) / kSlices;
  std::vector<double> ops(kSlices, 0.0);
  for (const auto& reader : readers) {
    for (const uint64_t t : reader->checkpoints_ns) {
      if (t >= start && t < end) {
        const int slice = std::min(
            kSlices - 1, static_cast<int>(static_cast<double>(t - start) /
                                          slice_ns));
        ops[slice] += kCheckpointOps;
      }
    }
  }
  for (double& rate : ops) {
    rate *= 1e3 / slice_ns;  // ops per ns * 1e9 * 1e-6
  }
  return Median(ops);
}

/// What a serving session reports.
enum class Report {
  kEndToEnd,  // untraced serve_mixed
  kLayers,    // traced serve_mixed: serve layer + trace overhead
  kProbe,     // traced, inside another workload: serve layer only
};

/// Sets up the service, drives the readers and the writer through a
/// window of `window_seconds`, checks the service, and reports.
int RunSession(const RunContext& ctx, double window_seconds, Report report) {
  Result& result = *ctx.result;
  Tracer& tracer = *ctx.tracer;
  const bool probe = report == Report::kProbe;
  // Open-loop writer rate, well below the writer's closed-loop capacity
  // (about 46k mutations/s on a 4-core host), so the writer sleeps most
  // of the time and leaves its core to the readers and the re-bootstrap.
  const double rate = ctx.tiny ? 2000.0 : 4000.0;
  const uint64_t planned = static_cast<uint64_t>(rate * window_seconds);
  const uint64_t planned_removals = planned / kRemovalInterval;
  const uint64_t planned_adds = planned - planned_removals;

  // Set-up, repeated: generate, load, bootstrap. The last service is
  // the one measured; the rebootstrap runs on its own 1-thread pool.
  tpsl::exec::ThreadPool rebootstrap_pool(1);
  std::vector<double> setup_seconds;
  std::vector<double> bootstrap_seconds;
  ServeInputData input;
  std::unique_ptr<PartitionService> service;
  for (int rep = 0; rep < (probe ? 1 : 3); ++rep) {
    service.reset();
    const uint64_t start = NowNanos();
    auto loaded = LoadInput(ctx, rep == 0 && !probe, planned_adds);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    input = std::move(*loaded);
    if (input.tail.size() < planned_adds) {
      std::fprintf(stderr, "perfbench: tail of %zu edges is shorter than the "
                   "%llu planned adds\n", input.tail.size(),
                   static_cast<unsigned long long>(planned_adds));
      return 1;
    }
    // Fork the re-bootstrap after 55% of the planned mutations and adopt
    // it 30% later. Staleness is drift / live edges, and the live count
    // grows by 3/4 of the drift (7 adds per removal). Mutations replayed
    // at adoption count as drift of the new state, so forking past the
    // half-way point keeps a second fork out of the window.
    const double fork_at = 0.55 * static_cast<double>(planned);
    PartitionService::Options options;
    options.publish_batch_edges = kPublishBatch;
    options.rebootstrap_threshold =
        fork_at / (static_cast<double>(input.base.size()) + 0.75 * fork_at);
    options.adopt_after_publishes = static_cast<uint32_t>(
        0.30 * static_cast<double>(planned) / kPublishBatch);
    options.max_readers = kReaders + 1;
    options.pool = &rebootstrap_pool;
    tpsl::PartitionConfig config;
    config.num_partitions = kPartitions;
    config.exec.threads = 1;
    service = std::make_unique<PartitionService>(config, options);
    Status status;
    {
      ScopedSpan span(tracer, "serve.bootstrap", "serve");
      tpsl::InMemoryEdgeStream base(input.base);
      status = service->Bootstrap(base);
      bootstrap_seconds.push_back(span.ElapsedSeconds());
    }
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_seconds.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
  }

  const std::vector<KeyStream> key_streams =
      MakeKeyStreams(ctx.seed, input.num_vertices, ctx.tiny ? 1 << 14 : 1 << 20);
  const double clock_overhead = ClockOverheadNanos();

  ResetPeakRss();
  std::atomic<int> phase{kWarmUp};
  std::vector<std::unique_ptr<ReaderThread>> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<ReaderThread>(*service, key_streams[r],
                                                     phase, tracer));
  }
  const auto sleep_seconds = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
  sleep_seconds(ctx.tiny ? 0.2 : 1.0);  // warm caches and branch predictors
  if (report == Report::kLayers) {
    // Reader-only probes, untraced then traced, for the span overhead.
    phase.store(kUntracedProbe, std::memory_order_release);
    sleep_seconds(ctx.tiny ? 0.2 : 1.0);
    phase.store(kTracedProbe, std::memory_order_release);
    sleep_seconds(ctx.tiny ? 0.2 : 1.0);
  }

  // The open-loop writer: mutation i is due at start + i / rate, and its
  // latency runs from that due time, so a stall is charged to every
  // mutation queued behind it.
  std::vector<Edge> removable;
  removable.reserve(input.base.size() + planned_adds);
  for (const Edge& e : input.base) {
    if (e.first != e.second) {
      removable.push_back(e);
    }
  }
  tpsl::SplitMix64 removal_rng(tpsl::HashCombine(ctx.seed, 0xD1E));
  std::vector<double> latency_us, lag_ms, publish_us, adopt_ms;
  latency_us.reserve(planned);
  lag_ms.reserve(planned);
  uint64_t adds = 0;
  uint64_t removals = 0;
  uint64_t busy_ns = 0;
  uint64_t rebootstraps_seen = 0;
  bool writer_ok = true;
  const double interval_ns = 1e9 / rate;
  // With a 1 us timer slack a sleep overshoots by a few microseconds, so
  // spinning the last 30 us keeps the sends on schedule.
  constexpr uint64_t kSpinNanos = 30000;
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  phase.store(kMeasure, std::memory_order_release);
  const uint64_t window_start = NowNanos();
  for (uint64_t i = 0; i < planned && writer_ok; ++i) {
    const uint64_t due =
        window_start + static_cast<uint64_t>(static_cast<double>(i) * interval_ns);
    // Sleep to just short of the due time, then spin the rest.
    for (uint64_t now = NowNanos(); now < due; now = NowNanos()) {
      if (due - now > kSpinNanos) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - kSpinNanos));
      }
    }
    const uint64_t epoch = service->epoch();
    const uint64_t rebootstraps = service->Rebootstraps();
    const uint64_t sent = NowNanos();
    Status status;
    const bool remove = (i + 1) % kRemovalInterval == 0;
    if (remove) {
      const size_t pick =
          static_cast<size_t>(removal_rng.NextBounded(removable.size()));
      const Edge victim = removable[pick];
      removable[pick] = removable.back();
      removable.pop_back();
      status = service->RemoveEdge(victim);
      removals += status.ok();
    } else {
      const Edge edge = input.tail[adds];
      StatusOr<PartitionId> placed = service->AddEdge(edge);
      status = placed.status();
      if (placed.ok()) {
        removable.push_back(edge);
        ++adds;
      }
    }
    const uint64_t done = NowNanos();
    writer_ok = status.ok();
    result.Attempt(writer_ok, "mutation: " + status.ToString());
    latency_us.push_back(static_cast<double>(done - due) * 1e-3);
    lag_ms.push_back(static_cast<double>(sent - due) * 1e-6);
    busy_ns += done - sent;
    const bool published = service->epoch() != epoch;
    const bool adopted = service->Rebootstraps() != rebootstraps;
    if (published) {
      publish_us.push_back(static_cast<double>(done - sent) * 1e-3);
    }
    if (adopted) {
      adopt_ms.push_back(static_cast<double>(done - sent) * 1e-6);
      rebootstraps_seen = service->Rebootstraps();
    }
    if (tracer.enabled() && (published || adopted || i % kSpanInterval == 0)) {
      SpanRecord span;
      span.id = tracer.NewId();
      span.name = adopted     ? "serve.mutation_adopt"
                  : published ? "serve.mutation_publish"
                  : remove    ? "serve.remove_edge"
                              : "serve.add_edge";
      span.category = "serve";
      span.start_ns = sent;
      span.end_ns = done;
      span.thread = ThreadIndex();
      tracer.Add(span);
    }
  }
  const uint64_t window_end = NowNanos();
  phase.store(kStop, std::memory_order_release);
  for (auto& reader : readers) {
    reader->Join();
  }

  Status flushed;
  {
    ScopedSpan span(tracer, "serve.flush", "serve");
    flushed = service->Flush();
  }
  result.Attempt(flushed.ok(), "final flush: " + flushed.ToString());
  const PartitionService::Stats stats = service->GetStats();
  const double peak_rss = PeakRssMb();

  // Readers: throughput, sampled latency, hit ratio.
  const double slice_mops = MedianSliceMops(readers, window_start, window_end);
  double mops = 0.0;
  double untraced_probe = 0.0;
  double traced_probe = 0.0;
  uint64_t vertex_lookups = 0;
  uint64_t vertex_hits = 0;
  std::vector<double> lookup_ns;
  for (auto& reader : readers) {
    result.Attempt(!reader->failed, "reader could not get a slot");
    result.Attempt(reader->ops[kMeasure] > 0, "reader made no lookups");
    // A lookup has no error path: each one counts as attempted.
    result.Succeeded(reader->ops[kMeasure]);
    if (reader->seconds[kMeasure] > 0.0) {
      mops += static_cast<double>(reader->ops[kMeasure]) /
              reader->seconds[kMeasure] * 1e-6;
    }
    if (report == Report::kLayers &&
        reader->seconds[kUntracedProbe] > 0.0 &&
        reader->seconds[kTracedProbe] > 0.0) {
      untraced_probe += static_cast<double>(reader->ops[kUntracedProbe]) /
                        reader->seconds[kUntracedProbe];
      traced_probe += static_cast<double>(reader->ops[kTracedProbe]) /
                      reader->seconds[kTracedProbe];
    }
    vertex_lookups += reader->vertex_lookups;
    vertex_hits += reader->vertex_hits;
    for (const uint32_t ns : reader->samples_ns) {
      lookup_ns.push_back(static_cast<double>(ns));
    }
    tracer.AddAll(reader->spans);
  }

  // Checks: ledger arithmetic, reader/writer agreement after Flush, a
  // re-bootstrap inside the window, and a writer that kept up.
  result.Attempt(stats.live_edges == input.base.size() + adds - removals,
                 "live_edges != bootstrap + adds - removals");
  result.Attempt(rebootstraps_seen >= 1,
                 "no re-bootstrap was adopted inside the measured window");
  result.Attempt(lag_ms.empty() || lag_ms.back() < 100.0,
                 "writer backlog grew: last mutation sent " +
                     FormatDouble(lag_ms.empty() ? 0.0 : lag_ms.back()) +
                     " ms late");
  {
    auto checker = service->CreateReader();
    result.Attempt(checker.ok(), "checker reader");
    if (checker.ok()) {
      tpsl::SplitMix64 pick(tpsl::HashCombine(ctx.seed, 0xC4EC));
      for (int n = 0; n < 4096 && !removable.empty(); ++n) {
        const Edge e = removable[pick.NextBounded(removable.size())];
        StatusOr<PartitionId> placed = service->LookupPlacement(e);
        const tpsl::serve::VertexLookup a = (*checker)->LookupVertex(e.first);
        const tpsl::serve::VertexLookup b = (*checker)->LookupVertex(e.second);
        // Both endpoints are replicated on the edge's partition, so the
        // route is the lowest common replica partition: at most it.
        result.Attempt(placed.ok() && a.found && b.found &&
                           a.primary <= *placed && b.primary <= *placed &&
                           (*checker)->RouteEdge(e) <= *placed,
                       "RouteEdge/LookupPlacement disagree on a live edge");
      }
    }
  }
  result.Attempt(!lookup_ns.empty() && !latency_us.empty(),
                 "no latency samples");
  if (lookup_ns.empty() || latency_us.empty()) {
    return 1;
  }
  const double window_s = static_cast<double>(window_end - window_start) * 1e-9;
  const uint64_t lookups = static_cast<uint64_t>(mops * 1e6 * window_s);

  const double lookup_p50 = Quantile(lookup_ns, 0.50);
  const double lookup_p99 = Quantile(lookup_ns, 0.99);
  const double mutation_p50 = Quantile(latency_us, 0.50);
  if (!probe) {
    result.Info("readers", static_cast<double>(kReaders));
    result.Info("threads", static_cast<double>(kReaders + 2));
    result.Info("writer_rate_per_s", rate);
    result.Info("mutations", static_cast<double>(adds + removals));
    result.Info("lookups_in_window", static_cast<double>(lookups));
    result.Info("lookup_mops_mean", mops);
    result.Info("lookup_p50_ns", lookup_p50);
    result.Info("lookup_p99_ns", lookup_p99);
    result.Info("mutation_p50_us", mutation_p50);
    result.Info("lookup_samples", static_cast<double>(lookup_ns.size()));
    result.Info("lookup_sample_interval",
                static_cast<double>(kSampleInterval));
    result.Info("clock_overhead_ns", clock_overhead);
    result.Info("window_s", window_s);
    result.Info("rebootstraps", static_cast<double>(stats.rebootstraps));
    result.Info("adopt_ms", JoinValues(adopt_ms));
    result.Info("writer_lag_ms_max",
                *std::max_element(lag_ms.begin(), lag_ms.end()));
    result.Info("writer_lag_ms_last", lag_ms.back());
    result.Info("publishes_in_window", static_cast<double>(publish_us.size()));
    result.Info("setup_seconds", JoinValues(setup_seconds));
  }

  if (report == Report::kEndToEnd) {
    result.Metric("throughput_mops", slice_mops, "Mops/s");
    result.Metric("replication_factor", stats.replication_factor, "ratio");
    result.Metric("peak_rss_mb", peak_rss, "MiB");
    result.Metric("setup_s", Median(setup_seconds), "s");
    return 0;
  }
  result.Metric("serve.bootstrap_s", Median(bootstrap_seconds), "s");
  result.Metric("serve.lookup_p50_ns", lookup_p50, "ns");
  result.Metric("serve.lookup_p99_ns", lookup_p99, "ns");
  result.Metric("serve.mutation_p50_us", mutation_p50, "us");
  result.Metric("serve.mutation_p999_us", Quantile(latency_us, 0.999), "us");
  result.Metric("serve.publish_p99_us", Quantile(publish_us, 0.99), "us");
  result.Metric("serve.adopt_max_ms",
                adopt_ms.empty() ? 0.0
                                 : *std::max_element(adopt_ms.begin(),
                                                     adopt_ms.end()),
                "ms");
  result.Metric("serve.writer_busy_frac",
                static_cast<double>(busy_ns) * 1e-9 / window_s, "ratio");
  result.Metric("serve.writer_lag_p99_ms", Quantile(lag_ms, 0.99), "ms");
  result.Metric("serve.lookup_hit_ratio",
                vertex_lookups == 0 ? 0.0
                                    : static_cast<double>(vertex_hits) /
                                          static_cast<double>(vertex_lookups),
                "ratio");
  double hot_share = 0.0;
  for (const KeyStream& keys : key_streams) {
    hot_share += keys.hot_share / kReaders;
  }
  result.Metric("serve.hot_key_share", hot_share, "ratio");
  result.Metric("serve.epochs", static_cast<double>(stats.epochs_published),
                "count");
  result.Metric("serve.rebootstraps", static_cast<double>(stats.rebootstraps),
                "count");
  result.Metric("serve.state_bytes", static_cast<double>(stats.state_bytes),
                "bytes");
  result.Metric("serve.staleness_ratio", stats.staleness_ratio, "ratio");
  if (report == Report::kLayers) {
    result.Metric("trace_overhead_frac",
                  traced_probe > 0.0 ? untraced_probe / traced_probe - 1.0
                                     : 0.0,
                  "ratio");
  }
  return 0;
}

}  // namespace

int RunServeMixed(const RunContext& ctx) {
  if (!ctx.trace) {
    return RunSession(ctx, ctx.seconds, Report::kEndToEnd);
  }
  const int status = RunSession(ctx, ctx.seconds, Report::kLayers);
  // Bootstrap runs 2PS-L at threads=1 over this graph, so the layers
  // under it are measured on the same input.
  return status != 0 ? status
                     : MeasurePartitionLayers(ctx, ServeInput(),
                                              /*own_input=*/false);
}

int MeasureServeLayers(const RunContext& ctx, double window_seconds) {
  return RunSession(ctx, window_seconds, Report::kProbe);
}

}  // namespace perfbench
