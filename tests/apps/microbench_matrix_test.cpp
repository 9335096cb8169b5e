// Parameterized consistency matrix over the microbenchmark configuration
// space (arithmetic mode x d-cache x descriptor residency x stream count):
// the physical orderings the paper's Tables 1-3 rest on must hold at every
// point, not just the published corners.
#include <gtest/gtest.h>

#include <type_traits>

#include "apps/experiments.hpp"

namespace nistream::apps {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: `dcache` is an int (0 or 1), not a bool.
struct MatrixPoint {
  int dcache;
  dwcs::DescriptorResidency residency;
  int n_streams;
};
static_assert(std::has_unique_object_representations_v<MatrixPoint>);

class MicrobenchMatrix : public ::testing::TestWithParam<MatrixPoint> {
 protected:
  static MicrobenchResult run(const MatrixPoint& p, dwcs::ArithMode arith) {
    MicrobenchConfig c;
    c.arith = arith;
    c.dcache_enabled = p.dcache;
    c.residency = p.residency;
    c.n_streams = p.n_streams;
    c.n_frames = p.n_streams * 38;
    return run_microbench(c);
  }
};

TEST_P(MicrobenchMatrix, FixedPointNeverSlowerThanSoftFloat) {
  const auto fixed = run(GetParam(), dwcs::ArithMode::kFixedPoint);
  const auto soft = run(GetParam(), dwcs::ArithMode::kSoftFloat);
  EXPECT_LT(fixed.avg_frame_sched_us, soft.avg_frame_sched_us);
  // And the gap is material (the FP library is the dominant arithmetic
  // cost), not rounding noise.
  EXPECT_GT(soft.avg_frame_sched_us - fixed.avg_frame_sched_us, 5.0);
}

TEST_P(MicrobenchMatrix, SchedulerAlwaysCostsMoreThanDispatchOnly) {
  const auto r = run(GetParam(), dwcs::ArithMode::kFixedPoint);
  EXPECT_GT(r.avg_frame_sched_us, r.avg_frame_wo_sched_us);
  EXPECT_GT(r.overhead_us(), 10.0);
}

TEST_P(MicrobenchMatrix, NativeFpuBeatsSoftFloat) {
  const auto native = run(GetParam(), dwcs::ArithMode::kNativeFloat);
  const auto soft = run(GetParam(), dwcs::ArithMode::kSoftFloat);
  EXPECT_LT(native.avg_frame_sched_us, soft.avg_frame_sched_us);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MicrobenchMatrix,
    ::testing::Values(
        MatrixPoint{false, dwcs::DescriptorResidency::kPinnedMemory, 2},
        MatrixPoint{false, dwcs::DescriptorResidency::kPinnedMemory, 16},
        MatrixPoint{true, dwcs::DescriptorResidency::kPinnedMemory, 2},
        MatrixPoint{true, dwcs::DescriptorResidency::kPinnedMemory, 16},
        MatrixPoint{false, dwcs::DescriptorResidency::kHardwareQueue, 4},
        MatrixPoint{true, dwcs::DescriptorResidency::kHardwareQueue, 4},
        MatrixPoint{true, dwcs::DescriptorResidency::kPinnedMemory, 64}),
    [](const auto& param_info) {
      const auto& p = param_info.param;
      return std::string{p.dcache ? "cacheOn" : "cacheOff"} + "_" +
             (p.residency == dwcs::DescriptorResidency::kPinnedMemory
                  ? "pinned"
                  : "hwq") +
             "_s" + std::to_string(p.n_streams);
    });

TEST(MicrobenchMatrixCache, CacheAlwaysHelpsPinnedMemory) {
  for (const int n : {2, 8, 32}) {
    MicrobenchConfig c;
    c.arith = dwcs::ArithMode::kFixedPoint;
    c.n_streams = n;
    c.n_frames = n * 38;
    c.dcache_enabled = false;
    const auto off = run_microbench(c);
    c.dcache_enabled = true;
    const auto on = run_microbench(c);
    EXPECT_LT(on.avg_frame_sched_us, off.avg_frame_sched_us) << n;
    EXPECT_LT(on.avg_frame_wo_sched_us, off.avg_frame_wo_sched_us) << n;
  }
}

TEST(MicrobenchMatrixCache, HardwareQueueIsCacheInsensitive) {
  MicrobenchConfig c;
  c.arith = dwcs::ArithMode::kFixedPoint;
  c.residency = dwcs::DescriptorResidency::kHardwareQueue;
  c.dcache_enabled = false;
  const auto off = run_microbench(c);
  c.dcache_enabled = true;
  const auto on = run_microbench(c);
  // The descriptor path (w/o-scheduler column) lives in the register file:
  // the cache state must barely move it.
  EXPECT_NEAR(on.avg_frame_wo_sched_us, off.avg_frame_wo_sched_us, 0.5);
}

}  // namespace
}  // namespace nistream::apps
