// Out-of-core partitioning workloads: the paper's job. Every measured
// pass reads the compressed edge file, runs 2PS-L (k=32, alpha=1.05),
// validates the assignment, scores quality and spills every partition
// to disk; the spilled files are then read back to check the run and
// deleted.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "exec/thread_pool.h"
#include "io/edge_file.h"
#include "partition/assignment_sink.h"
#include "partition/runner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tpsl::Edge;
using tpsl::PartitionConfig;
using tpsl::RunOptions;
using tpsl::RunResult;
using tpsl::Status;
using tpsl::StatusOr;

constexpr uint32_t kPartitions = 32;
constexpr double kAlpha = 1.05;

// The paper's job runs at threads=1; the traced run compares it with
// passes at kOtherThreads for the exec layer.
constexpr uint32_t kThreads = 1;
constexpr uint32_t kOtherThreads = 2;

const InputSpec& RmatInput() {
  static const InputSpec spec = [] {
    InputSpec s;
    // The rmat_s20 catalog recipe: 8.4M edges, 2^20 vertices.
    s.full = {"oocore_rmat", "rmat", 20, 8, 0.57, 0, kDefaultSeed};
    s.full_pin = "fnv1a64:21c21339907dc665";
    s.tiny = {"oocore_rmat_tiny", "rmat", 12, 8, 0.57, 0, kDefaultSeed};
    s.tiny_pin = "fnv1a64:58571f1b9ac204a2";
    return s;
  }();
  return spec;
}

/// Wall and CPU seconds of one timed library call.
struct Call {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Everything one oocore run shares across its passes.
class Pipeline {
 public:
  Pipeline(const RunContext& ctx, std::string path, uint64_t num_edges,
           uint64_t num_vertices)
      : ctx_(ctx),
        path_(std::move(path)),
        num_edges_(num_edges),
        num_vertices_(num_vertices),
        spill_dir_(ctx.workdir + "/spill") {
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
  }

  const std::string& path() const { return path_; }
  uint64_t num_edges() const { return num_edges_; }
  uint64_t num_vertices() const { return num_vertices_; }

  PartitionConfig Config(uint32_t threads, tpsl::exec::ThreadPool* pool) const {
    PartitionConfig config;
    config.num_partitions = kPartitions;
    config.balance_factor = kAlpha;
    config.exec.threads = threads;
    config.exec.pool = pool;
    return config;
  }

  uint64_t Capacity() const {
    return Config(1, nullptr).PartitionCapacity(num_edges_);
  }

  /// One RunPartitioner call inside a span named `span`; `call` gets
  /// the span's wall and CPU seconds. `spill` adds the disk sink; with
  /// `verify` the spilled files are then checked against the result
  /// (outside the span). They are deleted either way.
  StatusOr<RunResult> Run(uint32_t threads, tpsl::exec::ThreadPool* pool,
                          bool validate, bool spill, bool verify,
                          const char* span, const char* category, Call* call) {
    StatusOr<RunResult> run = [&]() -> StatusOr<RunResult> {
      ScopedSpan timed(*ctx_.tracer, span, category);
      const double cpu_start = ProcessCpuSeconds();
      TPSL_ASSIGN_OR_RETURN(std::unique_ptr<tpsl::EdgeStream> stream,
                            tpsl::io::OpenEdgeFile(path_));
      TPSL_ASSIGN_OR_RETURN(std::unique_ptr<tpsl::Partitioner> partitioner,
                            tpsl::MakePartitioner("2PS-L(par)"));
      RunOptions options;
      options.validate = validate;
      if (spill) {
        options.spill_dir = spill_dir_;
      }
      StatusOr<RunResult> result = tpsl::RunPartitioner(
          *partitioner, *stream, Config(threads, pool), options);
      call->cpu_seconds = ProcessCpuSeconds() - cpu_start;
      call->seconds = timed.ElapsedSeconds();
      return result;
    }();
    if (run.ok() && spill) {
      if (verify) {
        ctx_.result->Attempt(CheckSpill(*run), "spilled partitions disagree "
                                               "with the run's quality");
      }
      tpsl::RemoveSpilledFiles(run->spill);
    }
    return run;
  }

  /// The null-sink rung: Partition() into a CountingSink, in a span.
  Status PartitionNull(uint32_t threads, tpsl::exec::ThreadPool* pool,
                       tpsl::PartitionStats* stats,
                       std::vector<uint64_t>* loads, Call* call) {
    ScopedSpan timed(*ctx_.tracer, "core.partition_null_sink", "core");
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<tpsl::EdgeStream> stream,
                          tpsl::io::OpenEdgeFile(path_));
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<tpsl::Partitioner> partitioner,
                          tpsl::MakePartitioner("2PS-L(par)"));
    tpsl::CountingSink sink(kPartitions);
    const Status status =
        partitioner->Partition(*stream, Config(threads, pool), sink, stats);
    call->seconds = timed.ElapsedSeconds();
    *loads = sink.loads();
    return status;
  }

  /// Replication factor, per-partition counts and the balance cap,
  /// recomputed from the spilled files alone.
  bool CheckSpill(const RunResult& run) {
    auto streams = tpsl::OpenSpilledPartitions(run.spill);
    if (!streams.ok() || streams->size() != kPartitions ||
        run.spill.edge_counts.size() != kPartitions ||
        run.quality.partition_sizes.size() != kPartitions) {
      std::fprintf(stderr, "perfbench: cannot open spilled partitions\n");
      return false;
    }
    const size_t words = static_cast<size_t>((num_vertices_ + 63) / 64);
    std::vector<uint64_t> covered(words, 0);
    std::vector<uint64_t> in_part(words, 0);
    uint64_t total_replicas = 0;
    uint64_t covered_count = 0;
    uint64_t total_edges = 0;
    bool ok = true;
    std::vector<Edge> buffer(1 << 16);
    for (size_t p = 0; p < streams->size(); ++p) {
      tpsl::EdgeStream& stream = *(*streams)[p];
      std::fill(in_part.begin(), in_part.end(), 0);
      uint64_t edges = 0;
      const auto mark = [&](uint32_t v) {
        if (v >= num_vertices_) {
          ok = false;
          return;
        }
        const uint64_t bit = uint64_t{1} << (v & 63);
        if ((in_part[v >> 6] & bit) == 0) {
          in_part[v >> 6] |= bit;
          ++total_replicas;
        }
        if ((covered[v >> 6] & bit) == 0) {
          covered[v >> 6] |= bit;
          ++covered_count;
        }
      };
      if (!stream.Reset().ok()) {
        return false;
      }
      for (size_t n; (n = stream.Next(buffer.data(), buffer.size())) > 0;) {
        for (size_t i = 0; i < n; ++i) {
          mark(buffer[i].first);
          mark(buffer[i].second);
        }
        edges += n;
      }
      ok = ok && stream.Health().ok() && edges == run.spill.edge_counts[p] &&
           edges == run.quality.partition_sizes[p] && edges <= Capacity();
      total_edges += edges;
    }
    const double rf = covered_count == 0
                          ? 0.0
                          : static_cast<double>(total_replicas) /
                                static_cast<double>(covered_count);
    ok = ok && total_edges == num_edges_ &&
         run.quality.num_edges == num_edges_ &&
         covered_count == run.quality.num_covered_vertices &&
         rf == run.quality.replication_factor;
    return ok;
  }

 private:
  const RunContext& ctx_;
  std::string path_;
  uint64_t num_edges_;
  uint64_t num_vertices_;
  std::string spill_dir_;
};

/// A full pass as the user runs it: validation and spill on.
StatusOr<RunResult> FullPass(Pipeline& pipeline, uint32_t threads,
                             tpsl::exec::ThreadPool* pool, bool verify,
                             const char* span, const char* category,
                             Call* call) {
  return pipeline.Run(threads, pool, /*validate=*/true, /*spill=*/true, verify,
                      span, category, call);
}

bool LoadsOk(const std::vector<uint64_t>& loads, uint64_t num_edges,
             uint64_t capacity) {
  uint64_t sum = 0;
  for (const uint64_t load : loads) {
    sum += load;
    if (load > capacity) {
      return false;
    }
  }
  return loads.size() == kPartitions && sum == num_edges;
}

/// Generates the run's input; reports the pins on the first call.
StatusOr<std::unique_ptr<Pipeline>> SetUpInput(
    const RunContext& ctx, const InputSpec& input, bool first,
    tpsl::ingest::GenerateFileResult* generated) {
  const tpsl::ingest::DatasetRecipe recipe = RecipeFor(input, ctx);
  std::string path;
  TPSL_ASSIGN_OR_RETURN(*generated, GenerateInput(ctx, recipe, &path));
  if (first) {
    CheckInputPins(ctx, input, generated->checksum);
    ctx.result->Info("input_checksum", generated->checksum);
    ctx.result->Info("input_edges", static_cast<double>(generated->num_edges));
  }
  return std::make_unique<Pipeline>(ctx, path, generated->num_edges,
                                    uint64_t{1} << recipe.scale);
}

/// The paper's job measured end to end, tracing off.
int MeasureEndToEnd(const RunContext& ctx) {
  Result& result = *ctx.result;
  tpsl::exec::ThreadPool pool(kThreads);

  // Set-up, repeated so its median is stable: generate the input, then
  // one warm-up pass that faults in the page cache and the allocator.
  // The pin and spill checks are not part of it.
  const int setup_reps = 3;
  std::vector<double> setup_seconds;
  std::unique_ptr<Pipeline> pipeline;
  for (int rep = 0; rep < setup_reps; ++rep) {
    tpsl::ingest::GenerateFileResult generated;
    auto made = SetUpInput(ctx, RmatInput(), rep == 0, &generated);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
      return 1;
    }
    pipeline = std::move(*made);
    Call call;
    auto warm = FullPass(*pipeline, kThreads, &pool, /*verify=*/rep == 0,
                         "warm_up", "bench", &call);
    result.Attempt(warm.ok(), "warm-up pass: " + warm.status().ToString());
    setup_seconds.push_back(generated.generate_seconds + call.seconds);
  }

  // Measured passes: at least kMinPasses, and until --seconds is spent.
  // The median pass is reported: the host has contended phases that
  // last tens of seconds, so one pass is not a usable sample.
  // Each pass gets its own RSS high-water mark, and the median is
  // reported: one run-wide maximum would be a single sample. The heap is
  // trimmed once, after set-up; trimming per pass would add page faults
  // to the timed passes.
  constexpr size_t kMinPasses = 5;
  ResetPeakRss();
  std::vector<double> pass_seconds;
  std::vector<double> pass_peak_rss;
  std::vector<double> rfs;
  uint64_t state_bytes = 0;
  const double start = NowSeconds();
  while (pass_seconds.size() < kMinPasses ||
         NowSeconds() - start < ctx.seconds) {
    if (!pass_seconds.empty()) {
      ResetPeakRss(/*trim_heap=*/false);
    }
    Call call;
    auto run = FullPass(*pipeline, kThreads, &pool,
                        /*verify=*/pass_seconds.empty(), "full_pass", "bench",
                        &call);
    result.Attempt(run.ok(), "pass: " + run.status().ToString());
    if (!run.ok()) {
      return 1;
    }
    pass_peak_rss.push_back(PeakRssMb());
    pass_seconds.push_back(call.seconds);
    rfs.push_back(run->quality.replication_factor);
    state_bytes = run->stats.state_bytes;
  }

  const double edges_per_s =
      static_cast<double>(pipeline->num_edges()) / Median(pass_seconds);
  result.Metric("throughput_mops", edges_per_s * 1e-6, "Mops/s");
  result.Metric("replication_factor", Median(rfs), "ratio");
  result.Metric("peak_rss_mb", Median(pass_peak_rss), "MiB");
  result.Metric("setup_s", Median(setup_seconds), "s");
  result.Info("edges_per_s", edges_per_s);
  result.Info("pass_peak_rss_mb", JoinValues(pass_peak_rss));
  result.Info("passes", static_cast<double>(pass_seconds.size()));
  result.Info("state_bytes", static_cast<double>(state_bytes));
  result.Info("pass_seconds", JoinValues(pass_seconds));
  result.Info("setup_seconds", JoinValues(setup_seconds));
  return 0;
}

}  // namespace

/// Per-layer split, tracing on: the io drain, the sink ladder, and the
/// thread-count comparison, each library call inside its own span.
int MeasurePartitionLayers(const RunContext& ctx, const InputSpec& input,
                           bool own_input) {
  Result& result = *ctx.result;
  Tracer& tracer = *ctx.tracer;
  Tracer untraced(false);
  RunContext untraced_ctx = ctx;
  untraced_ctx.tracer = &untraced;
  tpsl::exec::ThreadPool pool(kThreads);
  tpsl::exec::ThreadPool other_pool(kOtherThreads);
  constexpr int kReps = 3;

  tpsl::ingest::GenerateFileResult generated;
  std::unique_ptr<Pipeline> pipeline;
  {
    auto made = SetUpInput(ctx, input, own_input, &generated);
    if (!made.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", made.status().ToString().c_str());
      return 1;
    }
    pipeline = std::move(*made);
  }
  const uint64_t num_edges = generated.num_edges;
  const uint64_t capacity = pipeline->Capacity();
  {
    Call call;
    auto warm = FullPass(*pipeline, kThreads, &pool, /*verify=*/true,
                         "warm_up", "bench", &call);
    result.Attempt(warm.ok(), "warm-up pass: " + warm.status().ToString());
  }

  // io: drain the file with no partitioner attached.
  std::vector<double> io_seconds;
  uint64_t io_bytes = 0;
  {
    std::vector<Edge> buffer(1 << 16);
    for (int rep = 0; rep < kReps; ++rep) {
      uint64_t edges = 0;
      bool ok = false;
      {
        ScopedSpan span(tracer, "io.drain_edge_file", "io");
        auto stream = tpsl::io::OpenEdgeFile(pipeline->path());
        ok = stream.ok() && (*stream)->Reset().ok();
        if (ok) {
          for (size_t n;
               (n = (*stream)->Next(buffer.data(), buffer.size())) > 0;) {
            edges += n;
          }
          ok = (*stream)->Health().ok();
          io_bytes = (*stream)->Io().disk_bytes_this_pass;
        }
        io_seconds.push_back(span.ElapsedSeconds());
      }
      result.Attempt(ok && edges == num_edges, "io drain");
    }
  }

  // Untraced reference passes, for the trace overhead and the
  // threads=1 consistency check.
  Pipeline reference(untraced_ctx, pipeline->path(), num_edges,
                     pipeline->num_vertices());
  std::vector<double> untraced_seconds;
  tpsl::PartitionQuality untraced_quality;
  for (int rep = 0; rep < kReps; ++rep) {
    Call call;
    auto run = FullPass(reference, kThreads, &pool, /*verify=*/false,
                        "full_pass", "bench", &call);
    result.Attempt(run.ok(), "untraced pass: " + run.status().ToString());
    if (!run.ok()) {
      return 1;
    }
    untraced_seconds.push_back(call.seconds);
    untraced_quality = run->quality;
  }

  // The ladder: null sink, then RunPartitioner with quality only, with
  // validation, with validation and spill. Rungs are interleaved per
  // repetition so a slow host phase hits all of them alike.
  static const char* const kRungSpans[3] = {
      "partition.run_quality", "partition.run_validate", "partition.run_spill"};
  std::vector<double> rung_seconds[4];
  std::vector<double> degree, clustering, scoring;
  tpsl::PartitionStats null_stats;
  RunResult top;
  double top_wall = 0.0;
  double top_cpu = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan ladder(tracer, "ladder", "bench");
    {
      tpsl::PartitionStats stats;
      std::vector<uint64_t> loads;
      Call call;
      const Status status =
          pipeline->PartitionNull(kThreads, &pool, &stats, &loads, &call);
      result.Attempt(status.ok() && LoadsOk(loads, num_edges, capacity),
                     "null-sink rung: " + status.ToString());
      result.Attempt(loads == untraced_quality.partition_sizes,
                     "null-sink loads differ from the untraced run");
      rung_seconds[0].push_back(call.seconds);
      degree.push_back(stats.phase_seconds["degree"]);
      clustering.push_back(stats.phase_seconds["clustering"]);
      scoring.push_back(stats.phase_seconds["partitioning"]);
      null_stats = stats;
    }
    for (int rung = 1; rung <= 3; ++rung) {
      Call call;
      auto run = pipeline->Run(kThreads, &pool, /*validate=*/rung >= 2,
                               /*spill=*/rung == 3, /*verify=*/rung == 3,
                               kRungSpans[rung - 1],
                               "partition", &call);
      const std::string what = kRungSpans[rung - 1];
      result.Attempt(run.ok() && LoadsOk(run->quality.partition_sizes,
                                         num_edges, capacity),
                     what + ": " + run.status().ToString());
      if (!run.ok()) {
        return 1;
      }
      // threads=1 is deterministic: every rung reproduces the untraced
      // run exactly.
      result.Attempt(run->quality.num_edges == untraced_quality.num_edges &&
                         run->quality.replication_factor ==
                             untraced_quality.replication_factor,
                     what + " differs from the untraced run");
      rung_seconds[rung].push_back(call.seconds);
      if (rung == 3) {
        top_wall += call.seconds;
        top_cpu += call.cpu_seconds;
        top = std::move(*run);
      }
    }
  }

  // exec: the same full pass at threads=2. It is not deterministic, so
  // each one is checked against its own spilled output instead of the
  // reference.
  std::vector<double> other_seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    Call call;
    auto run = FullPass(*pipeline, kOtherThreads, &other_pool,
                        /*verify=*/true, "exec.full_pass_t2", "exec", &call);
    result.Attempt(run.ok(), "exec pass: " + run.status().ToString());
    other_seconds.push_back(call.seconds);
  }

  const double null_s = Median(rung_seconds[0]);
  const double quality_s = Median(rung_seconds[1]);
  const double validate_s = Median(rung_seconds[2]);
  const double spill_s = Median(rung_seconds[3]);
  const double edges = static_cast<double>(num_edges);

  result.Metric("ingest.generate_s", generated.generate_seconds, "s");
  result.Metric("ingest.bytes_written",
                static_cast<double>(generated.file_bytes), "bytes");
  result.Metric("io.pass_s", Median(io_seconds), "s");
  result.Metric("io.edges_per_s", edges / Median(io_seconds), "edges/s");
  result.Metric("io.bytes_per_pass", static_cast<double>(io_bytes), "bytes");
  result.Metric("core.null_sink_s", null_s, "s");
  result.Metric("core.degree_s", Median(degree), "s");
  result.Metric("core.clustering_s", Median(clustering), "s");
  result.Metric("core.scoring_s", Median(scoring), "s");
  result.Metric("core.prepartitioned_frac",
                static_cast<double>(null_stats.prepartitioned_edges) / edges,
                "ratio");
  result.Metric("core.state_bytes",
                static_cast<double>(null_stats.state_bytes), "bytes");
  result.Metric("core.stream_passes",
                static_cast<double>(null_stats.stream_passes), "count");
  result.Metric("partition.quality_s", quality_s - null_s, "s");
  result.Metric("partition.validate_s", validate_s - quality_s, "s");
  result.Metric("partition.spill_s", spill_s - validate_s, "s");
  result.Metric("partition.spill_bytes",
                static_cast<double>(top.spill.bytes_written), "bytes");
  result.Metric("partition.sink_state_bytes",
                static_cast<double>(top.stats.state_bytes) -
                    static_cast<double>(null_stats.state_bytes),
                "bytes");
  result.Metric("partition.max_load_ratio", top.quality.measured_alpha,
                "ratio");
  result.Metric("exec.cpu_util", top_cpu / (top_wall * kThreads), "ratio");
  result.Metric("exec.speedup_vs_t1", spill_s / Median(other_seconds),
                "ratio");
  if (own_input) {
    result.Metric("trace_overhead_frac",
                  spill_s / Median(untraced_seconds) - 1.0, "ratio");
  }
  result.Info("reps", static_cast<double>(kReps));
  result.Info("untraced_pass_seconds", JoinValues(untraced_seconds));
  result.Info("other_threads_pass_seconds", JoinValues(other_seconds));
  return 0;
}

int RunOocoreRmatT1(const RunContext& ctx) {
  ctx.result->Info("threads", static_cast<double>(kThreads));
  if (!ctx.trace) {
    return MeasureEndToEnd(ctx);
  }
  // This workload bypasses the serve layer; a short serve_mixed session
  // measures it, so the traced run reports every layer.
  const int status =
      MeasurePartitionLayers(ctx, RmatInput(), /*own_input=*/true);
  return status != 0 ? status
                     : MeasureServeLayers(ctx, std::min(ctx.seconds, 5.0));
}

}  // namespace perfbench
