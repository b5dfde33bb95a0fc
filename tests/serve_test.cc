#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dynamic/incremental_partitioner.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/assignment_sink.h"
#include "serve/partition_service.h"
#include "serve/placement_ledger.h"
#include "serve/serving_table.h"
#include "serve/traffic.h"
#include "util/random.h"

namespace tpsl {
namespace serve {
namespace {

constexpr VertexId kBaseVertices = 1 << 12;

std::vector<Edge> BaseGraph() {
  SocialNetworkConfig config;
  config.num_vertices = kBaseVertices;
  config.clique_size = 8;
  config.seed = 99;
  return GenerateSocialNetwork(config);
}

PartitionConfig Config(uint32_t k) {
  PartitionConfig config;
  config.num_partitions = k;
  config.seed = 42;
  config.exec.threads = 1;
  return config;
}

void ExpectTableMatchesOracle(const ServingTable& table,
                              const IncrementalPartitioner& state,
                              const std::vector<Edge>& probe_edges) {
  const ReplicationTable& replicas = *state.replicas();
  ASSERT_EQ(table.num_vertices(), replicas.num_vertices());
  for (VertexId v = 0; v < table.num_vertices(); ++v) {
    const VertexLookup got = table.LookupVertex(v);
    const VertexLookup want = OracleLookupVertex(replicas, v);
    ASSERT_EQ(got.found, want.found) << "vertex " << v;
    ASSERT_EQ(got.replica_count, want.replica_count) << "vertex " << v;
    ASSERT_EQ(got.primary, want.primary) << "vertex " << v;
  }
  const uint64_t seed = state.config().seed;
  for (const Edge& e : probe_edges) {
    ASSERT_EQ(table.RouteEdge(e), OracleRouteEdge(replicas, e, seed))
        << "edge (" << e.first << "," << e.second << ")";
  }
}

/// A probe mix: the base edges themselves, plus pairs where one or
/// both endpoints are unknown to the table.
std::vector<Edge> ProbeEdges(const std::vector<Edge>& base) {
  std::vector<Edge> probes(base.begin(),
                           base.begin() + std::min<size_t>(base.size(), 4096));
  SplitMix64 rng(123);
  for (int i = 0; i < 4096; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices * 2));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices * 2));
    if (u != v) {
      probes.push_back(Edge{u, v});
    }
  }
  return probes;
}

/// The placement ledger as the service kept it before the flat layout:
/// a LIFO stack of partitions per edge, the edge log in placement
/// order, and a removal count per edge. Compaction skips the first r
/// occurrences of an edge removed r times.
class ReferenceLedger {
 public:
  void Append(const Edge& e, PartitionId p) {
    stacks_[e].push_back(p);
    log_.push_back(e);
  }
  StatusOr<PartitionId> Lookup(const Edge& e) const {
    auto it = stacks_.find(e);
    if (it == stacks_.end() || it->second.empty()) {
      return Status::NotFound("no live placement");
    }
    return it->second.back();
  }
  StatusOr<PartitionId> Remove(const Edge& e) {
    StatusOr<PartitionId> p = Lookup(e);
    if (p.ok()) {
      stacks_[e].pop_back();
      ++removed_[e];
      ++removals_;
    }
    return p;
  }
  uint64_t live() const { return log_.size() - removals_; }
  std::vector<Edge> Compact() const {
    std::unordered_map<Edge, uint32_t> remaining = removed_;
    std::vector<Edge> out;
    for (const Edge& e : log_) {
      auto it = remaining.find(e);
      if (it != remaining.end() && it->second > 0) {
        --it->second;
        continue;
      }
      out.push_back(e);
    }
    return out;
  }

 private:
  std::unordered_map<Edge, std::vector<PartitionId>> stacks_;
  std::unordered_map<Edge, uint32_t> removed_;
  std::vector<Edge> log_;
  uint64_t removals_ = 0;
};

class ReferenceSink : public AssignmentSink {
 public:
  explicit ReferenceSink(ReferenceLedger* ledger) : ledger_(ledger) {}
  void Assign(const Edge& edge, PartitionId partition) override {
    ledger_->Append(edge, partition);
  }

 private:
  ReferenceLedger* ledger_;
};

TEST(PlacementLedgerTest, MatchesReferenceUnderDuplicateHeavyChurn) {
  // Edges over 64 vertices: about 10k appends land on at most 4096
  // distinct edges, so most edges carry several placements and many
  // are removed down to none and placed again. A default ledger starts
  // with 16 index slots and ends with thousands of distinct edges, so
  // the index rehashes several times between the checks below; halfway
  // through, both ledgers restart from their compaction the way a
  // re-bootstrap does (adopted log, partitions filled in order).
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SplitMix64 rng(seed);
    PlacementLedger ledger;
    ReferenceLedger reference;
    const auto random_edge = [&rng] {
      return Edge{static_cast<VertexId>(rng.NextBounded(64)),
                  static_cast<VertexId>(rng.NextBounded(64))};
    };
    for (int op = 0; op < 20'000; ++op) {
      const Edge e = random_edge();
      const uint64_t kind = rng.NextBounded(10);
      if (kind < 5) {
        const PartitionId p = static_cast<PartitionId>(rng.NextBounded(32));
        ledger.Append(e, p);
        reference.Append(e, p);
      } else if (kind < 9) {
        const StatusOr<PartitionId> want = reference.Remove(e);
        const StatusOr<PartitionId> looked_up = ledger.LookupPlacement(e);
        ASSERT_EQ(looked_up.status().code(), want.status().code())
            << "seed " << seed << " op " << op;
        if (want.ok()) {
          ASSERT_EQ(*looked_up, *want) << "seed " << seed << " op " << op;
        }
        ASSERT_EQ(ledger.RemoveEdge(e).code(), want.status().code())
            << "seed " << seed << " op " << op;
      } else {
        const StatusOr<PartitionId> want = reference.Lookup(e);
        const StatusOr<PartitionId> got = ledger.LookupPlacement(e);
        ASSERT_EQ(got.status().code(), want.status().code())
            << "seed " << seed << " op " << op;
        if (want.ok()) {
          ASSERT_EQ(*got, *want) << "seed " << seed << " op " << op;
        }
      }
      ASSERT_EQ(ledger.live(), reference.live()) << "seed " << seed;
      if (op % 1000 == 999) {
        ASSERT_EQ(ledger.Compact(), reference.Compact())
            << "seed " << seed << " op " << op;
      }
      if (op == 10'000) {
        const std::vector<Edge> compacted = reference.Compact();
        ASSERT_EQ(ledger.Compact(), compacted);
        ledger = PlacementLedger(compacted);
        reference = ReferenceLedger();
        for (const Edge& c : compacted) {
          const PartitionId p = static_cast<PartitionId>(rng.NextBounded(32));
          ledger.Append(c, p);
          reference.Append(c, p);
        }
        ASSERT_EQ(ledger.log(), compacted);
        ASSERT_EQ(ledger.live(), compacted.size());
      }
    }
    EXPECT_EQ(ledger.Compact(), reference.Compact()) << "seed " << seed;
  }
}

TEST(PlacementLedgerTest, FullyRemovedEdgeIsNotFoundUntilPlacedAgain) {
  PlacementLedger ledger;
  const Edge a{1, 2};
  const Edge b{2, 1};  // a different edge: keys are ordered pairs
  EXPECT_EQ(ledger.LookupPlacement(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.RemoveEdge(a).code(), StatusCode::kNotFound);
  ledger.Append(a, 3);
  ledger.Append(b, 4);
  ledger.Append(a, 5);
  ASSERT_EQ(*ledger.LookupPlacement(a), 5u);  // newest first (LIFO)
  ASSERT_TRUE(ledger.RemoveEdge(a).ok());
  ASSERT_EQ(*ledger.LookupPlacement(a), 3u);
  ASSERT_TRUE(ledger.RemoveEdge(a).ok());
  EXPECT_EQ(ledger.RemoveEdge(a).code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.LookupPlacement(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*ledger.LookupPlacement(b), 4u);
  EXPECT_EQ(ledger.live(), 1u);
  EXPECT_EQ(ledger.Compact(), (std::vector<Edge>{b}));
  ledger.Append(a, 6);
  EXPECT_EQ(*ledger.LookupPlacement(a), 6u);
  // a's one live placement is its newest position: after b in the log.
  EXPECT_EQ(ledger.Compact(), (std::vector<Edge>{b, a}));
}

TEST(PlacementLedgerTest, AdoptedLogCostsUnderThirtyTwoBytesPerEdge) {
  std::vector<Edge> log;
  for (VertexId v = 0; v < 100'000; ++v) {
    log.push_back(Edge{v, v + 1});
  }
  PlacementLedger ledger(log);
  for (const Edge& e : log) {
    ledger.Append(e, e.first % 32);
  }
  EXPECT_LE(ledger.HeapBytes(), 32u * log.size());
  EXPECT_EQ(ledger.live(), log.size());
}

TEST(ServingTableTest, BuildMatchesOracleEverywhere) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(16));
  CountingSink sink(16);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  const auto table = BuildServingTable(partitioner, /*epoch=*/1);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->epoch(), 1u);
  EXPECT_EQ(table->live_edges(), partitioner.num_edges());
  EXPECT_EQ(table->loads(), partitioner.loads());
  ExpectTableMatchesOracle(*table, partitioner, ProbeEdges(edges));
}

TEST(ServingTableTest, LookupOutsideTableIsNotFound) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(8));
  CountingSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  const auto table = BuildServingTable(partitioner, 1);
  const VertexLookup miss = table->LookupVertex(kBaseVertices * 16);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.replica_count, 0u);
  EXPECT_EQ(miss.primary, kInvalidPartition);
}

TEST(PartitionServiceTest, PatchedSnapshotEqualsFullRebuild) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 32;  // force many delta patches
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  // A few hundred adds (new vertices force chunk growth) and removals
  // of a slice of them, spread across many publish boundaries.
  SplitMix64 rng(7);
  std::vector<Edge> added;
  for (int i = 0; i < 500; ++i) {
    const Edge e{static_cast<VertexId>(rng.NextBounded(kBaseVertices)),
                 kBaseVertices + static_cast<VertexId>(i)};
    ASSERT_TRUE(service.AddEdge(e).ok());
    added.push_back(e);
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(service.RemoveEdge(added[static_cast<size_t>(i) * 2]).ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  const auto patched = service.CurrentSnapshot();
  ASSERT_NE(patched, nullptr);
  const auto rebuilt =
      BuildServingTable(service.partitioner_for_test(), patched->epoch());
  ASSERT_EQ(patched->num_vertices(), rebuilt->num_vertices());
  EXPECT_EQ(patched->live_edges(), rebuilt->live_edges());
  EXPECT_EQ(patched->loads(), rebuilt->loads());
  for (VertexId v = 0; v < patched->num_vertices(); ++v) {
    const VertexLookup a = patched->LookupVertex(v);
    const VertexLookup b = rebuilt->LookupVertex(v);
    ASSERT_EQ(a.found, b.found) << "vertex " << v;
    ASSERT_EQ(a.replica_count, b.replica_count) << "vertex " << v;
    ASSERT_EQ(a.primary, b.primary) << "vertex " << v;
  }
}

TEST(PartitionServiceTest, PlacementsMatchFromScratchPartitioner) {
  // The service must be a pure serving shell: the placements it makes
  // and the snapshot it publishes must equal an IncrementalPartitioner
  // driven with the identical operation sequence, with no drift from
  // batching, publishing, or ledger bookkeeping.
  const auto edges = BaseGraph();
  PartitionService::Options options;
  options.publish_batch_edges = 64;
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  PartitionService service(Config(16), options);
  {
    InMemoryEdgeStream stream(edges);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }
  IncrementalPartitioner oracle(Config(16));
  {
    InMemoryEdgeStream stream(edges);
    CountingSink sink(16);
    ASSERT_TRUE(oracle.Bootstrap(stream, sink).ok());
  }

  SplitMix64 rng(11);
  std::vector<std::pair<Edge, PartitionId>> added;
  for (int i = 0; i < 800; ++i) {
    // Unique edges (fresh second endpoint), so removal order cannot
    // be ambiguous between the two drivers.
    const Edge e{static_cast<VertexId>(rng.NextBounded(kBaseVertices)),
                 kBaseVertices + static_cast<VertexId>(i)};
    const auto service_placed = service.AddEdge(e);
    const auto oracle_placed = oracle.AddEdge(e);
    ASSERT_TRUE(service_placed.ok());
    ASSERT_TRUE(oracle_placed.ok());
    ASSERT_EQ(*service_placed, *oracle_placed) << "add #" << i;
    added.push_back({e, *service_placed});
    if (i % 5 == 4) {
      const auto& [victim, partition] = added[added.size() - 3];
      const auto looked_up = service.LookupPlacement(victim);
      ASSERT_TRUE(looked_up.ok());
      ASSERT_EQ(*looked_up, partition);
      ASSERT_TRUE(service.RemoveEdge(victim).ok());
      ASSERT_TRUE(oracle.RemoveEdge(victim, partition).ok());
      added.erase(added.end() - 3);
    }
  }
  ASSERT_TRUE(service.Flush().ok());

  EXPECT_EQ(service.partitioner_for_test().num_edges(), oracle.num_edges());
  EXPECT_EQ(service.partitioner_for_test().loads(), oracle.loads());
  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->live_edges(), oracle.num_edges());
  ExpectTableMatchesOracle(*snapshot, oracle, ProbeEdges(edges));
}

TEST(PartitionServiceTest, RebootstrapWithDuplicatesMatchesReferenceCompaction) {
  // Duplicate-heavy adds and LIFO removals across several forks and
  // adoptions. The oracle is an IncrementalPartitioner bootstrapped on
  // the reference ledger's compaction at each fork and replayed with
  // the same interim operations, so the service must reproduce the
  // reference compaction order exactly.
  const auto edges = BaseGraph();
  PartitionService::Options options;
  options.publish_batch_edges = 64;
  options.rebootstrap_threshold = 0.02;
  options.adopt_after_publishes = 3;
  PartitionService service(Config(16), options);
  {
    InMemoryEdgeStream stream(edges);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }

  struct OracleState {
    std::unique_ptr<IncrementalPartitioner> partitioner;
    ReferenceLedger ledger;
  };
  const auto bootstrap = [](const std::vector<Edge>& base, OracleState* s) {
    s->partitioner = std::make_unique<IncrementalPartitioner>(Config(16));
    s->ledger = ReferenceLedger();
    InMemoryEdgeStream stream(base);
    ReferenceSink sink(&s->ledger);
    ASSERT_TRUE(s->partitioner->Bootstrap(stream, sink).ok());
  };
  struct Op {
    bool add;
    Edge edge;
  };
  const auto apply = [](OracleState& s, const Op& op) -> StatusOr<PartitionId> {
    if (op.add) {
      StatusOr<PartitionId> placed = s.partitioner->AddEdge(op.edge);
      if (placed.ok()) {
        s.ledger.Append(op.edge, *placed);
      }
      return placed;
    }
    StatusOr<PartitionId> removed = s.ledger.Remove(op.edge);
    if (removed.ok()) {
      TPSL_RETURN_IF_ERROR(s.partitioner->RemoveEdge(op.edge, *removed));
    }
    return removed;
  };

  OracleState current;
  bootstrap(edges, &current);
  std::optional<OracleState> pending;
  std::vector<Op> interim;
  uint64_t adopted = 0;
  uint64_t duplicate_adds = 0;
  uint64_t duplicate_removals = 0;
  // Mirrors what the last service call did at its publish boundary:
  // adopt the finished job, or fork one after applying the operation.
  const auto follow_service = [&] {
    if (service.Rebootstraps() != adopted) {
      ASSERT_TRUE(pending.has_value());
      for (const Op& op : interim) {
        ASSERT_TRUE(apply(*pending, op).ok());
      }
      current = std::move(*pending);
      pending.reset();
      interim.clear();
      ++adopted;
    }
    if (service.RebootstrapInFlight() && !pending.has_value()) {
      pending.emplace();
      bootstrap(current.ledger.Compact(), &*pending);
    }
  };

  // Hot set: vertices [0, 48), whose friend-circle cliques are in the
  // base graph, so the adds duplicate base edges and one another.
  SplitMix64 rng(21);
  for (int i = 0; i < 3000; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(48));
    VertexId v = static_cast<VertexId>(rng.NextBounded(47));
    v = v >= u ? v + 1 : v;
    if (u > v) {
      std::swap(u, v);
    }
    const Op op{rng.NextBounded(3) != 0, Edge{u, v}};
    const StatusOr<PartitionId> live = current.ledger.Lookup(op.edge);
    const StatusOr<PartitionId> looked_up = service.LookupPlacement(op.edge);
    ASSERT_EQ(looked_up.status().code(), live.status().code()) << "op " << i;
    if (live.ok()) {
      ASSERT_EQ(*looked_up, *live) << "op " << i;
    }
    bool applied;
    if (op.add) {
      duplicate_adds += live.ok() ? 1 : 0;
      const StatusOr<PartitionId> got = service.AddEdge(op.edge);
      const StatusOr<PartitionId> want = apply(current, op);
      ASSERT_TRUE(got.ok() && want.ok()) << "op " << i;
      ASSERT_EQ(*got, *want) << "op " << i;
      applied = true;
    } else {
      const Status got = service.RemoveEdge(op.edge);
      const StatusOr<PartitionId> want = apply(current, op);
      ASSERT_EQ(got.code(), want.status().code()) << "op " << i;
      applied = got.ok();
      duplicate_removals += applied && current.ledger.Lookup(op.edge).ok();
    }
    // Only applied mutations enter the service's replay log.
    if (applied && pending.has_value()) {
      interim.push_back(op);
    }
    follow_service();
  }
  // The first Flush publishes the tail (which may fork), the second
  // adopts whatever is still in flight.
  for (int flush = 0; flush < 2; ++flush) {
    ASSERT_TRUE(service.Flush().ok());
    follow_service();
  }
  ASSERT_FALSE(service.RebootstrapInFlight());
  EXPECT_GE(adopted, 2u);
  EXPECT_GT(duplicate_adds, 100u);
  EXPECT_GT(duplicate_removals, 10u);

  EXPECT_EQ(service.partitioner_for_test().num_edges(),
            current.partitioner->num_edges());
  EXPECT_EQ(service.partitioner_for_test().loads(),
            current.partitioner->loads());
  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->live_edges(), current.partitioner->num_edges());
  ExpectTableMatchesOracle(*snapshot, *current.partitioner, ProbeEdges(edges));
}

TEST(PartitionServiceTest, RebootstrapAdoptionPublishesFreshState) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 64;
  options.rebootstrap_threshold = 0.05;
  options.adopt_after_publishes = 2;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  SplitMix64 rng(13);
  for (int i = 0; i < 4000; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    if (u == v) {
      v = (v + 1) % kBaseVertices;
    }
    ASSERT_TRUE(service.AddEdge(Edge{u, v}).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_FALSE(service.RebootstrapInFlight());
  EXPECT_GE(service.Rebootstraps(), 1u);

  const PartitionService::Stats stats = service.GetStats();
  EXPECT_EQ(stats.rebootstraps, service.Rebootstraps());
  // The adopted partitioner was re-bootstrapped recently; only the
  // post-fork replay still counts as drift.
  EXPECT_LT(stats.staleness_ratio, 0.05);
  // The published snapshot is exactly the adopted partitioner's state.
  const auto snapshot = service.CurrentSnapshot();
  const auto rebuilt =
      BuildServingTable(service.partitioner_for_test(), snapshot->epoch());
  EXPECT_EQ(snapshot->live_edges(), rebuilt->live_edges());
  EXPECT_EQ(snapshot->loads(), rebuilt->loads());
  ExpectTableMatchesOracle(*snapshot, service.partitioner_for_test(),
                           ProbeEdges(edges));
}

// The acceptance hammer: reader threads stream lookups through epoch
// swaps while the writer mutates and at least one full re-bootstrap
// forks, runs, and is adopted mid-traffic. Run under tsan this is the
// data-race proof for the pin/publish/reclaim protocol; the counters
// prove lookups really completed while a re-bootstrap was in flight.
TEST(PartitionServiceTest, LookupsSurviveConcurrentRebootstrap) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 32;
  options.rebootstrap_threshold = 0.02;
  options.adopt_after_publishes = 0;  // adopt on the job's schedule
  options.max_readers = 8;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups_during_rebootstrap{0};
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &stop, &lookups_during_rebootstrap,
                          &total_lookups, r] {
      auto reader = service.CreateReader();
      ASSERT_TRUE(reader.ok());
      SplitMix64 rng(1000 + static_cast<uint64_t>(r));
      uint64_t local = 0, during = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool in_flight_before = service.RebootstrapInFlight();
        const VertexId v =
            static_cast<VertexId>(rng.NextBounded(kBaseVertices + 4096));
        const VertexLookup lookup = (*reader)->LookupVertex(v);
        const PartitionId route = (*reader)->RouteEdge(
            Edge{v, static_cast<VertexId>(rng.NextBounded(kBaseVertices))});
        ASSERT_LT(route, 16u);
        if (lookup.found) {
          ASSERT_GT(lookup.replica_count, 0u);
          ASSERT_LT(lookup.primary, 16u);
        }
        local += 2;
        if (in_flight_before && service.RebootstrapInFlight()) {
          during += 2;
        }
      }
      total_lookups.fetch_add(local);
      lookups_during_rebootstrap.fetch_add(during);
    });
  }

  // Mutate until at least one re-bootstrap has been adopted AND the
  // readers demonstrably overlapped one, with a generous op cap so a
  // logic bug fails the assertions below instead of hanging.
  SplitMix64 rng(17);
  uint64_t mutations = 0;
  while (mutations < 500'000 &&
         (service.Rebootstraps() < 1 ||
          lookups_during_rebootstrap.load() == 0)) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    if (u == v) {
      v = (v + 1) % kBaseVertices;
    }
    ASSERT_TRUE(service.AddEdge(Edge{u, v}).ok());
    ++mutations;
  }
  ASSERT_TRUE(service.Flush().ok());
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_GE(service.Rebootstraps(), 1u);
  EXPECT_GT(total_lookups.load(), 0u);
  // Lookups completed while a re-bootstrap was in flight — the "never
  // drop reads during offline rebuilds" contract, observed directly.
  EXPECT_GT(lookups_during_rebootstrap.load(), 0u);
  EXPECT_GT(service.epoch(), 1u);
}

TEST(PartitionServiceTest, MutationHardeningAndReaderSlots) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  options.max_readers = 2;
  PartitionService service(Config(8), options);

  EXPECT_EQ(service.CreateReader().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.AddEdge(Edge{1, 2}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  EXPECT_EQ(service.AddEdge(Edge{5, 5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.AddEdge(Edge{kInvalidVertex, 3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RemoveEdge(Edge{kBaseVertices + 7, kBaseVertices + 8})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.LookupPlacement(Edge{kBaseVertices + 7, kBaseVertices + 8})
                .status()
                .code(),
            StatusCode::kNotFound);

  // An add/remove round-trip leaves no live occurrence behind.
  const Edge fresh{1, kBaseVertices + 1};
  ASSERT_TRUE(service.AddEdge(fresh).ok());
  ASSERT_TRUE(service.RemoveEdge(fresh).ok());
  EXPECT_EQ(service.RemoveEdge(fresh).code(), StatusCode::kNotFound);

  auto r1 = service.CreateReader();
  auto r2 = service.CreateReader();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(service.CreateReader().status().code(), StatusCode::kOutOfRange);
  r1->reset();  // releasing a slot makes it reusable
  EXPECT_TRUE(service.CreateReader().ok());
}

TEST(IncrementalStalenessTest, RemovalsCountAsDrift) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(8));
  CountingSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  ASSERT_DOUBLE_EQ(partitioner.StalenessRatio(), 0.0);

  // 300 adds then 300 removals of those same edges: the live edge
  // count is back at baseline, but the structures have absorbed 600
  // ops of churn — exactly what the ratio must report.
  std::vector<std::pair<Edge, PartitionId>> added;
  for (int i = 0; i < 300; ++i) {
    const Edge e{static_cast<VertexId>(i % kBaseVertices),
                 kBaseVertices + static_cast<VertexId>(i)};
    const auto placed = partitioner.AddEdge(e);
    ASSERT_TRUE(placed.ok());
    added.push_back({e, *placed});
  }
  for (const auto& [e, p] : added) {
    ASSERT_TRUE(partitioner.RemoveEdge(e, p).ok());
  }
  EXPECT_EQ(partitioner.num_edges(), edges.size());
  EXPECT_DOUBLE_EQ(partitioner.StalenessRatio(),
                   600.0 / static_cast<double>(edges.size()));
}

TEST(TrafficTest, DeterministicPlacementSideResults) {
  SocialNetworkConfig config;
  config.num_vertices = 1 << 10;
  config.clique_size = 8;
  config.seed = 3;
  const auto edges = GenerateSocialNetwork(config);

  TrafficOptions traffic;
  traffic.config = Config(8);
  traffic.readers = 2;
  traffic.lookups_per_reader = 2048;
  traffic.mutation_fraction = 0.2;
  traffic.removal_interval = 8;
  traffic.publish_batch_edges = 64;
  traffic.rebootstrap_threshold = 0.05;
  traffic.adopt_after_publishes = 2;

  const auto first = RunTraffic(edges, traffic);
  const auto second = RunTraffic(edges, traffic);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->adds, 0u);
  EXPECT_GT(first->removals, 0u);
  EXPECT_GE(first->rebootstraps, 1u);
  EXPECT_EQ(first->lookups,
            static_cast<uint64_t>(traffic.readers) *
                traffic.lookups_per_reader);
  EXPECT_EQ(first->adds, second->adds);
  EXPECT_EQ(first->removals, second->removals);
  EXPECT_EQ(first->live_edges, second->live_edges);
  EXPECT_EQ(first->epochs_published, second->epochs_published);
  EXPECT_EQ(first->rebootstraps, second->rebootstraps);
  EXPECT_EQ(first->replication_factor, second->replication_factor);
  EXPECT_EQ(first->measured_alpha, second->measured_alpha);
  EXPECT_EQ(first->state_bytes, second->state_bytes);
}

}  // namespace
}  // namespace serve
}  // namespace tpsl
