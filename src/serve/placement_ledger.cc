#include "serve/placement_ledger.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.h"
#include "util/random.h"

namespace tpsl {
namespace serve {
namespace {

constexpr uint64_t kMinSlots = 16;

}  // namespace

PlacementLedger::PlacementLedger(std::vector<Edge> log)
    : log_(std::move(log)) {
  part_.reserve(log_.size());
  prev_.reserve(log_.size());
  // Sized for every adopted position being distinct, so filling them
  // never rehashes.
  index_.assign(std::bit_ceil(std::max<uint64_t>(kMinSlots, 2 * log_.size())),
                kNoPosition);
}

uint64_t PlacementLedger::SlotOf(const Edge& edge) const {
  const uint64_t key = (uint64_t{edge.first} << 32) | edge.second;
  return Mix64(key) & (index_.size() - 1);
}

void PlacementLedger::Append(const Edge& edge, PartitionId partition) {
  TPSL_DCHECK(!full());
  const uint32_t pos = static_cast<uint32_t>(part_.size());
  if (pos == log_.size()) {
    log_.push_back(edge);
  } else {
    TPSL_DCHECK(log_[pos] == edge);
  }
  if (2 * (distinct_ + 1) > index_.size()) {
    Rehash(std::max<uint64_t>(kMinSlots, 2 * index_.size()));
  }
  const uint64_t mask = index_.size() - 1;
  uint32_t previous = kNoPosition;
  for (uint64_t s = SlotOf(edge);; s = (s + 1) & mask) {
    if (index_[s] == kNoPosition) {
      ++distinct_;
      index_[s] = pos;
      break;
    }
    if (log_[index_[s]] == edge) {
      previous = index_[s];
      index_[s] = pos;
      break;
    }
  }
  part_.push_back(partition);
  prev_.push_back(previous);
  ++live_;
}

uint32_t PlacementLedger::Head(const Edge& edge) const {
  if (index_.empty()) {
    return kNoPosition;
  }
  const uint64_t mask = index_.size() - 1;
  // The load factor stays <= 1/2, so an empty slot ends every probe.
  for (uint64_t s = SlotOf(edge);; s = (s + 1) & mask) {
    const uint32_t pos = index_[s];
    if (pos == kNoPosition || log_[pos] == edge) {
      return pos;
    }
  }
}

uint32_t PlacementLedger::NewestLive(const Edge& edge) const {
  uint32_t pos = Head(edge);
  while (pos != kNoPosition && part_[pos] == kInvalidPartition) {
    pos = prev_[pos];
  }
  return pos;
}

StatusOr<PartitionId> PlacementLedger::LookupPlacement(
    const Edge& edge) const {
  const uint32_t pos = NewestLive(edge);
  if (pos == kNoPosition) {
    return Status::NotFound("edge has no live placement");
  }
  return part_[pos];
}

Status PlacementLedger::RemoveEdge(const Edge& edge) {
  const uint32_t pos = NewestLive(edge);
  if (pos == kNoPosition) {
    return Status::NotFound("edge has no live placement");
  }
  part_[pos] = kInvalidPartition;
  --live_;
  return Status::OK();
}

std::vector<Edge> PlacementLedger::Compact() const {
  // Only an edge with a tombstone loses positions: walking the log from
  // the newest position, its newest tombstone comes first, and one walk
  // of its chain settles it: the positions past its L live ones drop.
  const size_t filled = part_.size();
  std::vector<bool> drop(filled, false);
  std::vector<bool> settled(filled, false);  // tombstones of walked chains
  for (size_t p = filled; p-- > 0;) {
    if (part_[p] != kInvalidPartition || settled[p]) {
      continue;
    }
    const uint32_t head = Head(log_[p]);
    uint64_t live = 0;
    for (uint32_t pos = head; pos != kNoPosition; pos = prev_[pos]) {
      if (part_[pos] == kInvalidPartition) {
        settled[pos] = true;
      } else {
        ++live;
      }
    }
    for (uint32_t pos = head; pos != kNoPosition; pos = prev_[pos]) {
      if (live > 0) {
        --live;
      } else {
        drop[pos] = true;
      }
    }
  }
  std::vector<Edge> compacted;
  compacted.reserve(live_);
  for (size_t pos = 0; pos < filled; ++pos) {
    if (!drop[pos]) {
      compacted.push_back(log_[pos]);
    }
  }
  return compacted;
}

uint64_t PlacementLedger::HeapBytes() const {
  return log_.capacity() * sizeof(Edge) +
         part_.capacity() * sizeof(PartitionId) +
         prev_.capacity() * sizeof(uint32_t) +
         index_.capacity() * sizeof(uint32_t);
}

void PlacementLedger::Rehash(uint64_t slots) {
  const std::vector<uint32_t> old = std::move(index_);
  index_.assign(slots, kNoPosition);
  const uint64_t mask = slots - 1;
  for (const uint32_t head : old) {
    if (head == kNoPosition) {
      continue;
    }
    uint64_t s = SlotOf(log_[head]);
    while (index_[s] != kNoPosition) {
      s = (s + 1) & mask;
    }
    index_[s] = head;
  }
}

}  // namespace serve
}  // namespace tpsl
