// Cost-instrumentation hook.
//
// The embedded microbenchmarks (Tables 1-3) charge every arithmetic
// operation, memory word access and register access the scheduler performs
// to a target CPU model. The scheduler code calls this interface at each
// such point; the default hook does nothing (zero-cost scheduling, used by
// the pure-algorithm tests), and bench/microbench.hpp maps it onto
// hw::CpuModel with the i960 cost tables.
#pragma once

#include <cstdint>

#include "dwcs/types.hpp"

namespace nistream::dwcs {

enum class Op : std::uint8_t { kAdd, kMul, kDiv, kCmp };

class CostHook {
 public:
  virtual ~CostHook() = default;

  /// Integer ALU operation (fixed-point arithmetic path).
  virtual void arith_int(Op /*op*/, int /*n*/ = 1) {}
  /// Floating-point operation (software-FP or FPU path — the hook's cost
  /// table decides which).
  virtual void arith_float(Op /*op*/, int /*n*/ = 1) {}
  /// One data word accessed at a simulated address (through the d-cache).
  virtual void mem(SimAddr /*addr*/) {}
  /// One memory-mapped "hardware queue" register access (on-chip, uncached).
  virtual void reg() {}
  /// Fixed control-flow overhead in CPU cycles (call/loop/branch costs).
  virtual void cycles(std::int64_t /*n*/) {}

  /// False only for the shared null hook: charges are discarded, so pure
  /// wall-clock runs may skip charge sites outright and run a cheaper engine
  /// that makes the same decisions (make_dual_heap hands them the PIFO
  /// engine instead of the modeled Figure 4(a) dual heap). This base class
  /// is accounted and discards every charge: use it to run the modeled
  /// structures without a cost model.
  [[nodiscard]] virtual bool accounted() const { return true; }
};

namespace detail {
class NullCostHook final : public CostHook {
 public:
  [[nodiscard]] bool accounted() const override { return false; }
};
}  // namespace detail

/// Shared do-nothing hook for un-instrumented use.
[[nodiscard]] inline CostHook& null_cost_hook() {
  static detail::NullCostHook hook;
  return hook;
}

/// How the scheduler computes its fractional comparisons (§4.2):
enum class ArithMode {
  kFixedPoint,   // exact fractions, integer cross-multiplication
  kSoftFloat,    // software-emulated IEEE binary32 (VxWorks FP library)
  kNativeFloat,  // hardware FPU double (host-based scheduler)
};

/// Where frame descriptors live (§4.2.1, Table 2 vs Table 3):
enum class DescriptorResidency {
  kPinnedMemory,   // pinned card RAM, cacheable
  kHardwareQueue,  // the 1004 memory-mapped 32-bit registers, uncached
};

}  // namespace nistream::dwcs
