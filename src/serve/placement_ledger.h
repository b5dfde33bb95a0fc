#ifndef TPSL_SERVE_PLACEMENT_LEDGER_H_
#define TPSL_SERVE_PLACEMENT_LEDGER_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {
namespace serve {

/// The serving tier's record of every placement it has made, kept as
/// flat arrays over log positions (the split-merge partitioner's
/// `edges` + `edge2bucket` layout) with no per-edge allocation:
///  * `log_[i]`  — the i-th placed edge, in placement order;
///  * `part_[i]` — its partition, or kInvalidPartition once the
///                 placement was removed (a tombstone);
///  * `prev_[i]` — the previous position of the same edge, or
///                 kNoPosition: each edge's positions form a chain;
///  * `index_`   — open-addressing table (linear probing, Mix64 hash,
///                 load factor <= 1/2) from an edge to its newest
///                 position. Slots hold positions only; keys are
///                 compared through `log_[pos]`.
/// That is 8 + 4 + 4 bytes per position plus 8–16 bytes of index per
/// distinct edge.
///
/// Removal is LIFO per edge: it tombstones the edge's newest live
/// position, so duplicate edges resolve deterministically. Tombstones
/// stay in their chain (Compact() needs them), so the index never
/// deletes; a chain walk costs the edge's own occurrences since the
/// ledger was built.
class PlacementLedger {
 public:
  static constexpr uint32_t kNoPosition = ~uint32_t{0};

  PlacementLedger() = default;

  /// Adopts `log` as the edges of positions [0, log.size()), still
  /// without partitions. The first log.size() Append() calls fill them
  /// in order — a bootstrap streaming `log()` reports exactly that.
  explicit PlacementLedger(std::vector<Edge> log);

  /// Records the next placement (see the constructor for adopted
  /// positions, whose edge `edge` must equal). Requires !full().
  void Append(const Edge& edge, PartitionId partition);

  /// Partition of the newest live placement of `edge`; NotFound if
  /// none is live.
  StatusOr<PartitionId> LookupPlacement(const Edge& edge) const;

  /// Tombstones the newest live placement of `edge`; NotFound if none
  /// is live.
  Status RemoveEdge(const Edge& edge);

  /// The live edge log in placement order: for an edge with L live
  /// placements, its L newest positions, tombstoned or not — the same
  /// sequence as skipping the first r occurrences of an edge removed r
  /// times. A re-bootstrap streams this as its input.
  std::vector<Edge> Compact() const;

  const std::vector<Edge>& log() const { return log_; }
  /// Live placements (positions filled and not tombstoned).
  uint64_t live() const { return live_; }
  /// True once every position id is taken.
  bool full() const { return part_.size() >= kNoPosition; }
  /// Heap bytes held: the capacities of the four arrays.
  uint64_t HeapBytes() const;

 private:
  uint64_t SlotOf(const Edge& edge) const;
  /// Newest position of `edge`, or kNoPosition.
  uint32_t Head(const Edge& edge) const;
  /// Newest live position of `edge`, or kNoPosition.
  uint32_t NewestLive(const Edge& edge) const;
  void Rehash(uint64_t slots);

  std::vector<Edge> log_;
  std::vector<PartitionId> part_;
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> index_;  // power-of-two size; kNoPosition = empty
  uint64_t distinct_ = 0;        // occupied index slots
  uint64_t live_ = 0;
};

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_PLACEMENT_LEDGER_H_
