// The paper's Figure 4(a) dual-heap representation: the modeled engine of
// every charged DWCS run.
//
// The hierarchical scheduler (hierarchical.hpp) instantiates one per
// simulated NI core on charged runs, so the class lives in its own header
// rather than inside repr.cpp. Its heap comparators (DeadlineIdLess,
// ToleranceLess) live in pifo.hpp as one-line derivations of the DWCS/EDF
// rank structs, so each ordering is stated exactly once. Charges flow
// through the Comparator they hold.
//
// Uncharged (null-hook) runs never build this class: make_dual_heap() below
// hands them PifoRepr<DwcsRank> under the "dual-heap" name — one heap under
// the full rule-1..5 order plus the same deadline heap, which answers every
// pick() with the same stream in O(1) instead of the model's O(n) tie scan.
#pragma once

#include <memory>
#include <optional>

#include "dwcs/comparator.hpp"
#include "dwcs/cost.hpp"
#include "dwcs/heap.hpp"
#include "dwcs/pifo.hpp"
#include "dwcs/repr.hpp"
#include "dwcs/types.hpp"

namespace nistream::dwcs {

/// Figure 4(a): deadline heap + loss-tolerance heap. The deadline heap
/// resolves rule 1; ties at the minimum deadline are broken by the tolerance
/// ordering, which the tolerance heap keeps ready (its top is the globally
/// most tolerance-urgent stream, so the common all-deadlines-equal case is
/// O(1) after the heaps are maintained). When the tolerance-heap top does
/// not share the minimum deadline, the model scans the raw deadline heap for
/// the deadline-tied stream that wins the tolerance order — O(n), charged
/// word for word, exactly the cost stream Tables 1-2 were calibrated on.
class DualHeapRepr final : public ScheduleRepr {
 public:
  DualHeapRepr(const StreamTable& table, const Comparator& cmp, CostHook& hook,
               SimAddr base)
      : table_{table},
        cmp_{cmp},
        deadline_heap_{DeadlineIdLess{&table}, hook, base},
        tolerance_heap_{ToleranceLess{&table, &cmp}, hook, base + 0x10000} {}

  void insert(StreamId id) override {
    deadline_heap_.push(id);
    tolerance_heap_.push(id);
  }
  void remove(StreamId id) override {
    deadline_heap_.erase(id);
    tolerance_heap_.erase(id);
  }
  void update(StreamId id) override {
    deadline_heap_.update(id);
    tolerance_heap_.update(id);
  }
  void reserve(std::size_t n) override {
    deadline_heap_.reserve(n);
    tolerance_heap_.reserve(n);
  }

  std::optional<StreamId> pick() override {
    const auto top = deadline_heap_.top();
    if (!top) return std::nullopt;
    // Fast path: if the tolerance heap's top shares the minimum deadline it
    // is the answer outright (it beats every other deadline-tied stream in
    // the tolerance order).
    const sim::Time dmin = table_.view(*top).next_deadline;
    const auto tol_top = tolerance_heap_.top();
    if (tol_top && table_.view(*tol_top).next_deadline == dmin) return tol_top;
    // Tie scan: the best deadline-tied stream under the tolerance order.
    StreamId best = *top;
    for (std::size_t i = 0; i < deadline_heap_.raw().size(); ++i) {
      deadline_heap_.touch(i);
      const StreamId s = deadline_heap_.raw()[i];
      if (s == best) continue;
      if (table_.view(s).next_deadline != dmin) continue;
      if (cmp_.tolerance_precedes(table_.view(s), s, table_.view(best),
                                  best)) {
        best = s;
      }
    }
    return best;
  }

  std::optional<StreamId> earliest_deadline() override {
    return deadline_heap_.top();
  }

  const char* name() const override { return "dual-heap"; }

 private:
  const StreamTable& table_;
  const Comparator& cmp_;
  IndexedHeap<DeadlineIdLess> deadline_heap_;
  IndexedHeap<ToleranceLess> tolerance_heap_;
};

/// The ReprKind::kDualHeap engine for `hook`: the modeled DualHeapRepr when
/// the hook is accounted, else PifoRepr<DwcsRank> under the "dual-heap" name
/// (same decisions, one O(1) pick instead of the modeled tie scan).
[[nodiscard]] inline std::unique_ptr<ScheduleRepr> make_dual_heap(
    const StreamTable& table, const Comparator& cmp, CostHook& hook,
    SimAddr base) {
  if (hook.accounted()) {
    return std::make_unique<DualHeapRepr>(table, cmp, hook, base);
  }
  return std::make_unique<PifoRepr<DwcsRank>>(table, DwcsRank{&cmp}, hook,
                                              base, "dual-heap");
}

}  // namespace nistream::dwcs
