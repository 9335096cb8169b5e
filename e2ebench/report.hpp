// Measurement helpers shared by every workload: percentiles with their
// sample counts, the FNV-1a run fingerprint, host-clock timing, and the
// named metric list e2e_bench prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <time.h>

namespace e2e {

using HostClock = std::chrono::steady_clock;

inline double host_seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// CPU time of the calling thread, in seconds. The benchmark is single
/// threaded, so this is the host work a run did; unlike the wall clock it
/// does not count time the machine gave to other processes.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// FNV-1a over 64-bit words: the run fingerprint that proves a traced
/// (sliced) run and an untraced run simulated the same thing.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
};

/// A percentile as reported: the value, the quantile actually used and the
/// sample count. A quantile needs at least ten samples beyond it; when the
/// requested one has fewer, the highest quantile that has them is used.
struct Pct {
  double value = 0;
  double q = 0;
  std::size_t n = 0;
};

/// `v` must be sorted. +inf entries (unanswered requests) are legal samples.
inline Pct percentile(const std::vector<double>& v, double q) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  const double n = static_cast<double>(v.size());
  double qe = q;
  if (q > 0.5) qe = std::min(q, std::max(0.5, 1.0 - 10.0 / n));
  p.q = qe;
  const auto idx = static_cast<std::size_t>(
      std::min(n - 1.0, std::floor(qe * (n - 1.0) + 0.5)));
  p.value = v[idx];
  return p;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // sample count / quantile actually used, for the log
};

class MetricList {
 public:
  void add(std::string name, std::string unit, double value,
           std::string note = {}) {
    items_.push_back({std::move(name), std::move(unit), value,
                      std::move(note)});
  }
  void add_pct(const std::string& name, const std::string& unit,
               const Pct& p) {
    char note[96];
    std::snprintf(note, sizeof note, "q=%.4f n=%zu", p.q, p.n);
    add(name, unit, p.value, note);
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
 private:
  std::vector<Metric> items_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// JSON number with all its digits; non-finite values are not JSON, so they
/// become null and the run is marked incorrect by the caller.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace e2e
