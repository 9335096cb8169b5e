// Allocation audit for the CPU model's ready queue. A wind kernel with 4,096
// tasks cycling consume() — the dense workload's population, one producer
// task per stream — keeps thousands of tasks queued and preempts across
// priority classes. After warm-up (engine slab at its high-water mark), the
// submit / slice / finish path must hit the global heap ZERO times: every
// ready heap reserved room for its threads when they were created. This
// binary replaces ::operator new with a counting shim to prove it.
//
// Under ASan/TSan the sanitizer owns the allocator, so the shim is compiled
// out and only the coroutine-pool counters are checked.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rtos/wind.hpp"
#include "sim/coro.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NISTREAM_COUNTING_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NISTREAM_COUNTING_NEW 0
#else
#define NISTREAM_COUNTING_NEW 1
#endif
#else
#define NISTREAM_COUNTING_NEW 1
#endif

#if NISTREAM_COUNTING_NEW

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // NISTREAM_COUNTING_NEW

namespace nistream::rtos {
namespace {

using sim::Time;

TEST(CpuSchedAllocFree, WindKernelWith4096TasksNeverAllocatesAfterWarmup) {
  constexpr int kTasks = 4096;
  sim::Engine eng;
  hw::CpuModel cpu{hw::kI960Rd};
  WindKernel kernel{eng, cpu};
  std::vector<Task*> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    // Four priority classes: a waking task of a more urgent class preempts.
    tasks.push_back(&kernel.spawn("tProd" + std::to_string(i), 100 + i % 4));
  }
  // Each task sleeps, then consumes a slice; offered load is far above one
  // CPU, so the ready queue holds thousands of tasks and the CPU never idles.
  auto body = [&](int i) -> sim::Coro {
    Task& task = *tasks[static_cast<std::size_t>(i)];
    const Time gap = Time::us(100 + (i * 37) % 900);
    const Time work = Time::us(10 + (i * 13) % 50);
    for (;;) {
      co_await sim::Delay{eng, gap};
      co_await task.consume(work);
    }
  };
  for (int i = 0; i < kTasks; ++i) body(i).detach();

  eng.run_until(Time::sec(1));  // warm-up: every task has cycled
  const std::uint64_t switches_before = kernel.scheduler().context_switches();
  const Time busy_before = kernel.ni_cpu_busy();
  const auto coro_before = sim::coro_pool_stats();
#if NISTREAM_COUNTING_NEW
  const std::uint64_t heap_before = g_heap_allocs.load();
#endif

  eng.run_until(Time::sec(3));

#if NISTREAM_COUNTING_NEW
  const std::uint64_t heap_allocs = g_heap_allocs.load() - heap_before;
#endif
  const auto coro_after = sim::coro_pool_stats();
  // The window really exercised submit, slice and finish at scale.
  EXPECT_GT(kernel.scheduler().context_switches() - switches_before, 20'000u);
  // Saturated (busy is metered at slice ends, so allow one slice of slack).
  EXPECT_GT(kernel.ni_cpu_busy() - busy_before, Time::ms(1'999));
  EXPECT_EQ(coro_after.frames, coro_before.frames);
#if NISTREAM_COUNTING_NEW
  EXPECT_EQ(heap_allocs, 0u);
#endif
}

}  // namespace
}  // namespace nistream::rtos
