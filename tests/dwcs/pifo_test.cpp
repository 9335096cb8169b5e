// PIFO rank engine contract tests.
//
// The load-bearing property is DECISION IDENTITY for the DWCS rank:
// PifoRepr<DwcsRank> keeps the rule-1..5 total order in one heap, and
// DualHeapRepr — the Figure 4(a) deadline + tolerance heaps with their tie
// scan — must pick() the identical stream on every round, flat and with
// PIFO engines as the per-core representation inside the hierarchical
// sharding layer at every shard count. The WFQ rank is stateful (virtual
// finish tags), so its tests assert the fair-queueing contract instead:
// service counts converge to weight-proportional shares, and an idle flow
// rejoins at the clock with no banked catch-up burst. The round-robin rank
// is held to a cursor-scan oracle.
#include "dwcs/pifo.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "dwcs/dual_heap.hpp"
#include "dwcs/hierarchical.hpp"
#include "sim/random.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

class FakeTable final : public StreamTable {
 public:
  FakeTable() : StreamTable{views_} {}
  StreamView& mutable_view(StreamId id) { return views_[id]; }
  StreamId add(const StreamView& v) {
    views_.push_back(v);
    return static_cast<StreamId>(views_.size() - 1);
  }
  [[nodiscard]] std::size_t size() const { return views_.size(); }

 private:
  std::vector<StreamView> views_;
};

StreamView random_view(sim::Rng& rng, Time now) {
  StreamView v;
  const std::int64_t y = 1 + static_cast<std::int64_t>(rng.below(6));
  v.current = {static_cast<std::int64_t>(
                   rng.below(static_cast<std::uint64_t>(y + 1))),
               y};
  // Coarse deadline grid so ties are the common case and rule 5 decides.
  v.next_deadline = now + Time::ms(10 * (1 + static_cast<int>(rng.below(4))));
  v.head_enqueued_at = now;
  return v;
}

// ---------------------------------------------------------------------------
// DWCS-rank decision identity vs DualHeapRepr.
// ---------------------------------------------------------------------------

/// Drive DualHeapRepr and `candidate` in lock-step through a randomized
/// insert/remove/update/dispatch workload and assert pick() and
/// earliest_deadline() agree on every round. Dispatch follows the
/// scheduler's own mutation pattern, on_charge() included, so the charged
/// stream's re-sift happens through update() per the contract. Returns
/// rounds with a winner.
int run_lockstep(FakeTable& table, ScheduleRepr& reference,
                 ScheduleRepr& candidate, std::uint64_t seed,
                 const char* label) {
  sim::Rng rng{seed};
  std::vector<bool> present;
  // Each stream's original window, for rule (A)'s reset on dispatch.
  std::vector<WindowConstraint> originals;
  Time now = Time::zero();
  const auto insert = [&](StreamId id) {
    reference.insert(id);
    candidate.insert(id);
    present[id] = true;
  };

  for (int i = 0; i < 32; ++i) {
    const auto id = table.add(random_view(rng, now));
    originals.push_back(table.mutable_view(id).current);
    present.push_back(false);
    insert(id);
  }

  int decided = 0;
  for (int round = 0; round < 1500; ++round) {
    now += Time::ms(1 + static_cast<double>(rng.below(5)));
    const auto op = rng.below(10);
    if (op == 0 && table.size() < 96) {
      const auto id = table.add(random_view(rng, now));
      originals.push_back(table.mutable_view(id).current);
      present.push_back(false);
      insert(id);
    } else if (op == 1) {
      const auto id = static_cast<StreamId>(rng.below(table.size()));
      if (present[id]) {
        reference.remove(id);
        candidate.remove(id);
        present[id] = false;
      } else {
        table.mutable_view(id) = random_view(rng, now);
        originals[id] = table.mutable_view(id).current;
        insert(id);
      }
    }

    const auto p_ref = reference.pick();
    const auto p_cand = candidate.pick();
    EXPECT_EQ(p_cand, p_ref) << label << " seed " << seed << " round "
                             << round;
    EXPECT_EQ(candidate.earliest_deadline(), reference.earliest_deadline())
        << label << " seed " << seed << " round " << round;
    if (!p_ref || p_cand != p_ref) continue;

    // Dispatch the winner: charge, window adjustment, deadline advance,
    // then update both reprs — the scheduler's own mutation pattern.
    reference.on_charge(*p_ref);
    candidate.on_charge(*p_ref);
    auto& v = table.mutable_view(*p_ref);
    if (v.current.y > v.current.x) --v.current.y;
    if (v.current.y == v.current.x) v.current = originals[*p_ref];
    v.next_deadline += Time::ms(10 * (1 + static_cast<double>(rng.below(4))));
    reference.update(*p_ref);
    candidate.update(*p_ref);
    ++decided;
  }
  return decided;
}

TEST(PifoIdentity, DwcsRankMatchesDualHeap) {
  // Same seeds as the 5-way differential test.
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    FakeTable table;
    Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
    DualHeapRepr reference{table, cmp, null_cost_hook(), 0x0100'0000};
    const auto pifo = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                                0x0200'0000);
    EXPECT_STREQ(pifo->name(), "pifo-dwcs");
    EXPECT_GT(run_lockstep(table, reference, *pifo, seed, "flat"), 1000)
        << "seed " << seed;
  }
}

TEST(PifoIdentity, HierarchicalPifoCoresMatchDualHeap) {
  // The sharding layer over PIFO cores (what an uncharged DWCS run builds)
  // must still be decision-identical to one flat dual heap: same total
  // order per core, same root arbiter, any shard count.
  for (const std::uint32_t shards : {1u, 4u, 16u}) {
    for (const std::uint64_t seed : {7u, 99u, 1234u}) {
      FakeTable table;
      Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
      DualHeapRepr reference{table, cmp, null_cost_hook(), 0x0100'0000};
      HierarchicalScheduler sharded{
          table, cmp, null_cost_hook(), 0x0200'0000,
          HierarchicalParams{.shards = shards}};
      EXPECT_EQ(sharded.shards(), shards);
      EXPECT_GT(run_lockstep(table, reference, sharded, seed, "sharded"),
                1000)
          << "shards " << shards << " seed " << seed;
    }
  }
}

TEST(DualHeapEngine, FollowsTheHook) {
  // kDualHeap is the modeled two-heap structure on an accounted hook and the
  // PIFO engine on the null hook, under one name, with identical decisions.
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    FakeTable table;
    Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
    CostHook discard;  // accounted; every charge is dropped
    const auto modeled =
        make_repr(ReprKind::kDualHeap, table, cmp, discard, 0x0100'0000);
    const auto fast = make_repr(ReprKind::kDualHeap, table, cmp,
                                null_cost_hook(), 0x0200'0000);
    EXPECT_NE(dynamic_cast<DualHeapRepr*>(modeled.get()), nullptr);
    EXPECT_NE(dynamic_cast<PifoRepr<DwcsRank>*>(fast.get()), nullptr);
    EXPECT_STREQ(modeled->name(), "dual-heap");
    EXPECT_STREQ(fast->name(), "dual-heap");
    EXPECT_GT(run_lockstep(table, *modeled, *fast, seed, "engines"), 1000)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Non-DWCS ranks: order contracts.
// ---------------------------------------------------------------------------

TEST(PifoRanks, EdfOrdersByDeadlineThenId) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kEdf);
  EXPECT_STREQ(repr->name(), "pifo-edf");
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(30);
  const auto late = table.add(v);  // id 0, deadline 30
  v.next_deadline = Time::ms(10);
  const auto soon = table.add(v);  // id 1, deadline 10
  v.current = {0, 9};              // most urgent tolerance, same deadline 10
  const auto tied = table.add(v);  // id 2
  for (StreamId id = 0; id < 3; ++id) repr->insert(id);
  // Deadline wins over any tolerance; the 10ms tie breaks to the lower id.
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{soon});
  repr->remove(soon);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{tied});
  repr->remove(tied);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{late});
}

TEST(PifoRanks, StaticPriorityOrdersByIdAlone) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kStaticPriority);
  EXPECT_STREQ(repr->name(), "pifo-sp");
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(5);  // earliest deadline, highest id
  (void)table.add(v);
  v.next_deadline = Time::ms(50);
  (void)table.add(v);
  repr->insert(1);
  repr->insert(0);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{0});
  // earliest_deadline() stays attribute-honest under every policy.
  EXPECT_EQ(repr->earliest_deadline(), std::optional<StreamId>{0});
  repr->remove(0);
  EXPECT_EQ(repr->pick(), std::optional<StreamId>{1});
}

TEST(PolicyKindNames, Stable) {
  EXPECT_STREQ(to_string(PolicyKind::kDwcs), "dwcs");
  EXPECT_STREQ(to_string(PolicyKind::kEdf), "edf");
  EXPECT_STREQ(to_string(PolicyKind::kStaticPriority), "static-priority");
  EXPECT_STREQ(to_string(PolicyKind::kWfq), "wfq");
  EXPECT_STREQ(to_string(PolicyKind::kTenantDwcs), "tenant-dwcs");
  EXPECT_STREQ(to_string(PolicyKind::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(ReprKind::kPifo), "pifo");
}

// ---------------------------------------------------------------------------
// Round-robin rank vs a cursor scan.
// ---------------------------------------------------------------------------

/// The classic round-robin: scan from one past the last-served stream for
/// the first backlogged one, wrapping around the fixed population.
struct CursorScan {
  const std::vector<bool>* backlogged;
  StreamId cursor = 0;
  std::optional<StreamId> serve() {
    const auto n = static_cast<StreamId>(backlogged->size());
    for (StreamId k = 0; k < n; ++k) {
      const StreamId i = (cursor + k) % n;
      if ((*backlogged)[i]) {
        cursor = (i + 1) % n;
        return i;
      }
    }
    return std::nullopt;
  }
};

/// Seeded join/leave/serve script over a fixed population of 16 streams:
/// `repr`, built over `table`, must serve exactly what the cursor scan
/// serves at every step. Returns the number of services.
int run_rr_script(FakeTable& table, ScheduleRepr& repr, std::uint64_t seed) {
  constexpr StreamId kStreams = 16;
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(10);
  while (table.size() < kStreams) (void)table.add(v);
  std::vector<bool> backlogged(kStreams, false);
  CursorScan oracle{&backlogged};
  sim::Rng rng{seed};
  int served = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<StreamId>(rng.below(kStreams));
    const auto op = rng.below(4);
    if (op == 0 && !backlogged[id]) {
      repr.insert(id);
      backlogged[id] = true;
    } else if (op == 1 && backlogged[id]) {
      repr.remove(id);
      backlogged[id] = false;
    } else if (op >= 2) {
      const auto want = oracle.serve();
      const auto got = repr.pick();
      if (got != want) {
        ADD_FAILURE() << "seed " << seed << " step " << step << ": served "
                      << (got ? static_cast<long>(*got) : -1L)
                      << ", cursor scan serves "
                      << (want ? static_cast<long>(*want) : -1L);
        return served;
      }
      if (!got) continue;
      repr.on_charge(*got);
      if (rng.below(4) == 0) {  // the served head was its last frame
        repr.remove(*got);
        backlogged[*got] = false;
      } else {
        repr.update(*got);
      }
      ++served;
    }
  }
  return served;
}

TEST(RoundRobinRank, FlatMatchesCursorScan) {
  for (const std::uint64_t seed : {7u, 99u, 1234u}) {
    FakeTable table;
    Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
    const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                                0x0100'0000, {}, PolicyKind::kRoundRobin);
    EXPECT_STREQ(repr->name(), "pifo-rr");
    EXPECT_GT(run_rr_script(table, *repr, seed), 1000) << "seed " << seed;
  }
}

TEST(RoundRobinRank, HierarchicalMatchesCursorScan) {
  // Every core advances one shared last-served ledger, and the root orders
  // shard winners by the same (round, id) key. Both hooks: the uncharged
  // root is repaired lazily, the charged one eagerly.
  CostHook discard;
  for (CostHook* hook : {&null_cost_hook(), &discard}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const std::uint64_t seed : {7u, 99u, 1234u}) {
        FakeTable table;
        Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
        HierarchicalScheduler sharded{table, cmp, *hook, 0x0100'0000,
                                      HierarchicalParams{.shards = shards},
                                      PolicyKind::kRoundRobin};
        EXPECT_GT(run_rr_script(table, sharded, seed), 1000)
            << "shards " << shards << " seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// WFQ rank: fair-queueing contract.
// ---------------------------------------------------------------------------

/// Serve `rounds` picks from always-backlogged streams, following the
/// scheduler's dispatch pattern (pick -> on_charge -> update), and return
/// per-stream service counts.
std::vector<int> serve(ScheduleRepr& repr, FakeTable& table, int rounds) {
  std::vector<int> count(table.size(), 0);
  for (int i = 0; i < rounds; ++i) {
    const auto p = repr.pick();
    if (!p) break;
    repr.on_charge(*p);
    repr.update(*p);
    ++count[*p];
  }
  return count;
}

TEST(WfqRank, ServiceConvergesToWeightProportionalShares) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kWfq);
  EXPECT_STREQ(repr->name(), "pifo-wfq");
  // Weight is the outstanding on-time obligation y'-x': 1, 2, and 4.
  StreamView v;
  v.next_deadline = Time::ms(10);
  for (const std::int64_t y : {1, 2, 4}) {
    v.current = {0, y};
    repr->insert(table.add(v));
  }
  const auto count = serve(*repr, table, 7000);
  // kScale is divisible by every weight, so shares are exact up to the
  // rotation order within one virtual round: 1000/2000/4000.
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

TEST(WfqRank, RejoiningFlowGetsNoCatchUpBurst) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kWfq);
  StreamView v;
  v.next_deadline = Time::ms(10);
  v.current = {0, 1};  // equal weights
  const auto a = table.add(v);
  const auto b = table.add(v);
  repr->insert(a);
  // b idles while a is served 1000 times: a's finish tag (and the clock)
  // races ahead.
  (void)serve(*repr, table, 1000);
  repr->insert(b);
  // SCFQ admits b at the current clock, not at tag 0 — so b gets its fair
  // half from here on, not a 1000-service catch-up monopoly.
  const auto count = serve(*repr, table, 200);
  EXPECT_GE(count[b], 99);
  EXPECT_LE(count[b], 101);
  EXPECT_GE(count[a], 99);
}

TEST(WfqRank, HierarchicalCoresShareOneClock) {
  // The sharded machine hands every core (and the root) the same WfqState:
  // finish tags stay globally comparable, so weight-proportional shares
  // hold across shard boundaries too.
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 4},
                                PolicyKind::kWfq};
  StreamView v;
  v.next_deadline = Time::ms(10);
  for (const std::int64_t y : {1, 2, 4}) {
    v.current = {0, y};
    sharded.insert(table.add(v));
  }
  const auto count = serve(sharded, table, 7000);
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

// ---------------------------------------------------------------------------
// TenantDwcs rank: WFQ share across scopes, DWCS order within a scope.
// ---------------------------------------------------------------------------

TEST(TenantDwcs, WeightProportionalSharesAcrossScopes) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  TenantDwcsRank rank{&cmp};
  // One stream per scope, scope weights 1/2/4. Identical DWCS attributes so
  // the share split is purely the scope clocking.
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 3; ++id) {
    rank.state->set_scope(id, id);
    rank.state->set_weight(id, std::uint64_t{1} << id);  // 1, 2, 4
  }
  PifoRepr<TenantDwcsRank> repr{table, rank, null_cost_hook(), 0x0100'0000};
  EXPECT_STREQ(repr.name(), "pifo-tenant-dwcs");
  for (StreamId id = 0; id < 3; ++id) repr.insert(table.add(v));
  // With one stream per scope the charged stream IS the scope, so its
  // update() re-sift keeps the heap exact — shares land like WfqRank's.
  const auto count = serve(repr, table, 7000);
  EXPECT_NEAR(count[0], 1000, 2);
  EXPECT_NEAR(count[1], 2000, 2);
  EXPECT_NEAR(count[2], 4000, 2);
}

TEST(TenantDwcs, DwcsOrderDecidesWithinScope) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  TenantDwcsRank rank{&cmp};
  rank.state->set_scope(0, 0);
  rank.state->set_scope(1, 0);  // both streams in one tenant scope
  PifoRepr<TenantDwcsRank> repr{table, rank, null_cost_hook(), 0x0100'0000};
  StreamView v;
  v.current = {1, 4};
  v.next_deadline = Time::ms(30);
  const auto late = table.add(v);
  v.next_deadline = Time::ms(10);
  const auto soon = table.add(v);
  repr.insert(late);
  repr.insert(soon);
  // Same scope, so the scope tag is shared and rules 1-5 decide: the earlier
  // deadline wins no matter how often the scope is charged.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(repr.pick(), std::optional<StreamId>{soon});
    repr.on_charge(soon);
    repr.update(soon);
  }
  repr.remove(soon);
  EXPECT_EQ(repr.pick(), std::optional<StreamId>{late});
}

TEST(TenantDwcs, OverAdmittedScopeDegradesItselfNotNeighbours) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  // Scope 0 admits three streams, scope 1 one stream, equal weights: the
  // scope SHARES stay equal — scope 0's extra streams contend with each
  // other inside their own engine, not with scope 1 (the ROADMAP's
  // tenant-isolation property). Scope sharding makes this exact: the root
  // alternates between the two scope tags, whatever the populations.
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 2},
                                PolicyKind::kTenantDwcs};
  for (StreamId id = 0; id < 3; ++id) sharded.tenant_state()->set_scope(id, 0);
  sharded.tenant_state()->set_scope(3, 1);
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 4; ++id) sharded.insert(table.add(v));
  const auto count = serve(sharded, table, 4000);
  const int scope0 = count[0] + count[1] + count[2];
  EXPECT_NEAR(scope0, 2000, 2);
  EXPECT_NEAR(count[3], 2000, 2);
}

TEST(TenantDwcs, MakeReprBuildsTheScopeShardedTree) {
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  const auto repr = make_repr(ReprKind::kPifo, table, cmp, null_cost_hook(),
                              0x0100'0000, {}, PolicyKind::kTenantDwcs);
  // Flat kPifo reroutes to the two-level engine — tenant-DWCS cannot live in
  // one heap (see TenantDwcsRank's structural-requirement note).
  EXPECT_STREQ(repr->name(), "hierarchical");
  // Four streams land in four distinct default scopes (id % 4) with default
  // weight 1: equal shares.
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  for (StreamId id = 0; id < 4; ++id) repr->insert(table.add(v));
  const auto count = serve(*repr, table, 4000);
  for (StreamId id = 0; id < 4; ++id) EXPECT_NEAR(count[id], 1000, 2);
}

TEST(TenantDwcs, HierarchicalCoresShareOneLedger) {
  // The sharded machine hands every core (and the root winner order) the
  // same TenantDwcsState: scope finish tags stay globally comparable, so
  // per-scope shares hold across shard boundaries — same contract as
  // WfqRank.HierarchicalCoresShareOneClock.
  FakeTable table;
  Comparator cmp{ArithMode::kFixedPoint, null_cost_hook()};
  HierarchicalScheduler sharded{table, cmp, null_cost_hook(), 0x0100'0000,
                                HierarchicalParams{.shards = 4},
                                PolicyKind::kTenantDwcs};
  StreamView v;
  v.current = {0, 4};
  v.next_deadline = Time::ms(10);
  // Ids 0..7 -> default scopes 0..3, two streams per scope, equal weights.
  for (StreamId id = 0; id < 8; ++id) sharded.insert(table.add(v));
  const auto count = serve(sharded, table, 4000);
  for (std::uint32_t scope = 0; scope < 4; ++scope) {
    EXPECT_NEAR(count[scope] + count[scope + 4], 1000, 32) << "scope "
                                                           << scope;
  }
}

}  // namespace
}  // namespace nistream::dwcs
