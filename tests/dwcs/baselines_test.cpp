// Tests for the EDF / static-priority / round-robin baselines, and the
// head-to-head property that motivates DWCS: under overload, DWCS respects
// window constraints that the baselines break. Every baseline is the one
// DwcsScheduler running the PIFO engine under another rank policy.
#include <gtest/gtest.h>

#include "dwcs/monitor.hpp"
#include "dwcs/scheduler.hpp"

namespace nistream::dwcs {
namespace {

using sim::Time;

DwcsScheduler baseline(PolicyKind policy) {
  DwcsScheduler::Config cfg;
  cfg.repr = ReprKind::kPifo;
  cfg.policy = policy;
  return DwcsScheduler{cfg};
}

FrameDescriptor frame(std::uint64_t id, Time at) {
  return FrameDescriptor{.frame_id = id, .bytes = 1000,
                         .type = mpeg::FrameType::kP, .enqueued_at = at,
                         .frame_addr = 0};
}

TEST(Edf, PicksEarliestDeadline) {
  auto s = baseline(PolicyKind::kEdf);
  const auto slow = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(50)},
                                    Time::zero());
  const auto fast = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(10)},
                                    Time::zero());
  s.enqueue(slow, frame(0, Time::zero()), Time::zero());
  s.enqueue(fast, frame(1, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, fast);
}

TEST(Edf, DropsLateLossyPackets) {
  auto s = baseline(PolicyKind::kEdf);
  const auto id = s.create_stream(
      {.tolerance = {1, 2}, .period = Time::ms(10), .lossy = true},
      Time::zero());
  s.enqueue(id, frame(0, Time::zero()), Time::zero());
  EXPECT_FALSE(s.schedule_next(Time::ms(100)).has_value());
  EXPECT_EQ(s.stats(id).dropped, 1u);
}

TEST(StaticPriority, LowestIdWins) {
  auto s = baseline(PolicyKind::kStaticPriority);
  const auto hi = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(50)},
                                  Time::zero());
  const auto lo = s.create_stream({.tolerance = {1, 2}, .period = Time::ms(5)},
                                  Time::zero());
  s.enqueue(hi, frame(0, Time::zero()), Time::zero());
  s.enqueue(lo, frame(1, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, hi);  // creation order, not deadlines
}

TEST(RoundRobin, CyclesThroughBackloggedStreams) {
  auto s = baseline(PolicyKind::kRoundRobin);
  std::vector<StreamId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(s.create_stream(
        {.tolerance = {1, 2}, .period = Time::sec(10)}, Time::zero()));
    s.enqueue(ids.back(), frame(static_cast<std::uint64_t>(i), Time::zero()),
              Time::zero());
    s.enqueue(ids.back(), frame(static_cast<std::uint64_t>(10 + i), Time::zero()),
              Time::zero());
  }
  std::vector<StreamId> order;
  for (int i = 0; i < 6; ++i) {
    const auto d = s.schedule_next(Time::zero());
    ASSERT_TRUE(d);
    order.push_back(d->stream);
  }
  EXPECT_EQ(order, (std::vector<StreamId>{ids[0], ids[1], ids[2], ids[0],
                                          ids[1], ids[2]}));
}

TEST(RoundRobin, SkipsEmptyStreams) {
  auto s = baseline(PolicyKind::kRoundRobin);
  const auto a = s.create_stream({.tolerance = {1, 2}, .period = Time::sec(10)},
                                 Time::zero());
  const auto b = s.create_stream({.tolerance = {1, 2}, .period = Time::sec(10)},
                                 Time::zero());
  (void)a;
  s.enqueue(b, frame(0, Time::zero()), Time::zero());
  const auto d = s.schedule_next(Time::zero());
  ASSERT_TRUE(d);
  EXPECT_EQ(d->stream, b);
}

// ---- The head-to-head that motivates DWCS ---------------------------------
//
// Two 100-packet/s streams, but service capacity for only 90 packets/s.
// The tight stream tolerates 3 losses per 8 (needs 62.5 pps on time); the
// loose one tolerates 7 per 8 (needs 12.5 pps). Total on-time demand 75 pps
// < 90 pps: the constraint set is feasible, but only a scheduler that sheds
// losses *selectively by tolerance* meets it. DWCS does: expired loose-
// stream heads drop back onto the shared deadline grid, so decisions become
// tolerance ties that the tight stream wins, while the loose stream earns
// exactly its reserved share through the W'=0 urgency path. EDF and
// round-robin are attribute-blind and starve the tight stream of its
// 62.5 pps, breaking its window constraint continuously.
std::pair<std::uint64_t, std::uint64_t> overload_violations(
    DwcsScheduler& s) {
  WindowViolationMonitor monitor;
  const WindowConstraint tight{3, 8}, loose{7, 8};
  // The loose stream gets the lower id so EDF's id tie-break cannot
  // accidentally favour the tight stream.
  const auto l_id = s.create_stream(
      {.tolerance = loose, .period = Time::ms(10), .lossy = true}, Time::zero());
  const auto t_id = s.create_stream(
      {.tolerance = tight, .period = Time::ms(10), .lossy = true}, Time::zero());
  monitor.add_stream(loose);
  monitor.add_stream(tight);

  std::uint64_t fid = 0;
  std::array<std::uint64_t, 2> seen_drops{0, 0};
  const auto pump_monitor = [&] {
    for (StreamId id : {t_id, l_id}) {
      const auto d = s.stats(id).dropped;
      for (std::uint64_t k = seen_drops[id]; k < d; ++k) {
        monitor.record(id, WindowViolationMonitor::Outcome::kDropped);
      }
      seen_drops[id] = d;
    }
  };

  for (int t = 0; t < 30000; t += 10) {
    s.enqueue(t_id, frame(fid++, Time::ms(t)), Time::ms(t));
    s.enqueue(l_id, frame(fid++, Time::ms(t)), Time::ms(t));
    // 90% capacity: 9 service slots per 10 arrival ticks.
    if (t % 100 < 90) {
      const auto d = s.schedule_next(Time::ms(t));
      pump_monitor();
      if (d) {
        monitor.record(d->stream,
                       d->late ? WindowViolationMonitor::Outcome::kLate
                               : WindowViolationMonitor::Outcome::kOnTime);
      }
    } else {
      // Still account for drops that happen without a service slot (they are
      // recorded lazily at the next slot).
    }
  }
  pump_monitor();
  return {monitor.violating_windows(t_id), monitor.violating_windows(l_id)};
}

TEST(PolicyComparison, DwcsProtectsTightStreamUnderOverload) {
  DwcsScheduler dwcs{DwcsScheduler::Config{}};
  auto edf = baseline(PolicyKind::kEdf);
  auto rr = baseline(PolicyKind::kRoundRobin);
  const auto [dwcs_tight, dwcs_loose] = overload_violations(dwcs);
  const auto [edf_tight, edf_loose] = overload_violations(edf);
  const auto [rr_tight, rr_loose] = overload_violations(rr);
  (void)edf_loose;
  (void)rr_loose;
  // DWCS: the tight stream's constraint survives overload outright.
  EXPECT_EQ(dwcs_tight, 0u);
  EXPECT_LE(dwcs_loose, 10u);  // the loose stream's does too (it is feasible)
  // The attribute-blind baselines break it, badly and continuously.
  EXPECT_GT(edf_tight, 100u);
  EXPECT_GT(rr_tight, 100u);
}

TEST(PolicyComparison, SchedulerNames) {
  EXPECT_STREQ(DwcsScheduler{DwcsScheduler::Config{}}.name(), "dwcs");
  EXPECT_STREQ(baseline(PolicyKind::kEdf).name(), "edf");
  EXPECT_STREQ(baseline(PolicyKind::kStaticPriority).name(), "static-priority");
  EXPECT_STREQ(baseline(PolicyKind::kRoundRobin).name(), "round-robin");
}

}  // namespace
}  // namespace nistream::dwcs
