// The benchmark's workloads. Each one generates its input from the
// run's seed, measures for the requested number of seconds, checks the
// library's outputs, and fills in a Result: end-to-end metrics when
// tracing is off, per-layer metrics when it is on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ingest/external_generator.h"
#include "support.h"

namespace perfbench {

/// The seed whose full-size inputs have pinned checksums.
inline constexpr uint64_t kDefaultSeed = 1;

struct RunContext {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Scale every input down so the whole run, checks included, takes
  /// seconds (the benchmark's own self-test).
  bool tiny = false;
  std::string workdir;
  Tracer* tracer = nullptr;
  Result* result = nullptr;
};

/// Input recipe plus the logical FNV-1a checksums pinned for
/// kDefaultSeed at full and tiny scale.
struct InputSpec {
  tpsl::ingest::DatasetRecipe full;
  std::string full_pin;
  tpsl::ingest::DatasetRecipe tiny;
  std::string tiny_pin;
};

/// The recipe this run uses (tiny or full, seeded by the run).
tpsl::ingest::DatasetRecipe RecipeFor(const InputSpec& spec,
                                      const RunContext& ctx);

/// Generates `recipe` as a compressed edge file under the work
/// directory inside an "ingest.generate" span.
tpsl::StatusOr<tpsl::ingest::GenerateFileResult> GenerateInput(
    const RunContext& ctx, const tpsl::ingest::DatasetRecipe& recipe,
    std::string* path);

/// Checks the generators against the pins: always the tiny input for
/// kDefaultSeed, and the generated input itself when the run uses
/// kDefaultSeed. A mismatch is a failed check.
void CheckInputPins(const RunContext& ctx, const InputSpec& spec,
                    const std::string& generated_checksum);

/// The serve_mixed input.
const InputSpec& ServeInput();

/// Returns 0 after filling ctx.result; non-zero on a setup error.
/// Untraced, each workload reports the end-to-end metrics; traced,
/// each reports every per-layer metric: the layers its own calls do
/// not reach are measured by the probe below.
int RunOocoreRmatT1(const RunContext& ctx);
int RunServeMixed(const RunContext& ctx);

/// Traced: the ingest, io, core, partition and exec layers on `input`
/// at threads=1 (the null-sink rung, the sink ladder, the io drain, and
/// full passes at threads=2). `own_input` marks the workload's own
/// input: its pins are checked and trace_overhead_frac is reported.
int MeasurePartitionLayers(const RunContext& ctx, const InputSpec& input,
                           bool own_input);

/// Traced: the serve layer from one shorter serve_mixed session (one
/// set-up, no trace-overhead probe), for the workloads that bypass it.
int MeasureServeLayers(const RunContext& ctx, double window_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
