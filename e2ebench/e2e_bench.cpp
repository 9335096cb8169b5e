// End-to-end benchmark of the NI streaming server on both clocks.
//
//   e2e_bench --workload steady|storm|dense --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 repeats untraced runs of the workload, after one unmeasured
// warm-up run, until S host seconds have passed and reports the end-to-end
// metrics: simulated-clock metrics from the runs (identical across
// repetitions, which is checked), host-clock metrics as medians over the
// repetitions, each normalised by the work the run did and scaled to a
// reference host speed (see speed_probe_s). --trace 1 alternates an untraced and a traced run (the engine
// advanced in fixed simulated slices, a span kept per frame) for S seconds,
// checks both simulated the same thing, and reports the per-layer metrics
// plus the tracing overhead; the slice profile and frame spans are written
// to DIR (default .bench_out). The last line of stdout is one JSON object.
// Exit status is nonzero when any correctness check fails.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dense_workload.hpp"
#include "report.hpp"
#include "run_result.hpp"
#include "session_workloads.hpp"

namespace {

using namespace e2e;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 &&
         (a.workload == "steady" || a.workload == "storm" ||
          a.workload == "dense") &&
         a.seconds > 0;
}

RunResult run_once(const Args& a, bool traced) {
  if (a.workload == "steady") {
    return run_session_workload(steady_spec(), a.seed, traced);
  }
  if (a.workload == "storm") {
    return run_session_workload(storm_spec(), a.seed, traced);
  }
  return run_dense(dense_spec(), a.seed, traced);
}

/// CPU seconds of the speed probe on the host the benchmark was calibrated
/// on (a 4-core shared x86-64 machine), the reference speed that scaled host time is expressed in.
constexpr double kProbeReferenceS = 0.015;

/// Host speed probe, independent of the simulator: a 500k-step pointer chase
/// around one random cycle of 4 MiB of indices, mixed with xorshift
/// arithmetic. Its CPU time tracks how fast the shared machine runs at the
/// moment (clock rate, cache and memory contention from other processes).
/// Each repetition's host time is multiplied by kProbeReferenceS over the
/// mean of the probe run just before and just after it.
double speed_probe_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(1u << 20);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = i;
    // Sattolo's shuffle: a single cycle through every slot.
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  const double t0 = thread_cpu_seconds();
  std::uint32_t p = 0;
  std::uint64_t h = 88172645463325252ull;
  for (int k = 0; k < 500000; ++k) {
    p = next[p];
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    h += p;
  }
  static volatile std::uint64_t sink;
  sink = h;
  return thread_cpu_seconds() - t0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A metric the result line carries, with its manifest unit.
struct Wanted {
  const char* name;
  const char* unit;
};

/// End-to-end metrics in the result line: those every workload defines.
/// The SETUP metrics (setups_per_host_s, setup_ms_p50/p99, setup_slo_frac,
/// setup_rate_at_slo) exist only where clients send RTSP, so they are
/// printed in the log of steady and storm but not carried in the result.
const std::vector<Wanted> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_host_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"frame_late_ms_p50", "ms"},
    {"frame_late_ms_p99", "ms"},
    {"on_time_frac", "fraction"},
    {"window_kept_frac", "fraction"},
    {"frames_per_sim_s", "1/s"},
    {"ni_us_per_frame", "us"},
};

/// Per-layer metrics in the result line. A count or fraction of a layer the
/// workload's traffic does not cross reads 0; every time is measured on every
/// workload. Host-time probes defined on one workload only (the RTSP parser,
/// the flow-table classifier, the path stages of dense) are printed in the
/// log but not carried in the result.
const std::vector<Wanted> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"rtos.ni_busy_frac", "fraction"},
    {"rtos.context_switches", "count"},
    {"hw.ni_cycles", "count"},
    {"hw.ether_bytes_switched", "bytes"},
    {"hw.ether_frames_lost", "count"},
    {"dwcs.decisions", "count"},
    {"dwcs.violations", "count"},
    {"dwcs.admission_cpu_util", "fraction"},
    {"dwcs.run_sim_us_per_decision", "us"},
    {"dwcs.host_ns_per_decision", "ns"},
    {"dwcs.sim_cycles_per_decision", "cycles"},
    {"dwcs.mem_words_per_decision", "count"},
    {"dvcm.dispatched", "count"},
    {"dvcm.ring_full_rejects", "count"},
    {"dvcm.ni_queue_ms_p99", "ms"},
    {"dvcm.late_share_ms", "ms"},
    {"path.frames_pumped", "count"},
    {"path.late_share_ms", "ms"},
    {"net.late_share_ms", "ms"},
    {"net.ctl_rx_delivered", "count"},
    {"net.ctl_rx_discarded", "count"},
    {"net.ctl_useful_frac", "fraction"},
    {"session.requests", "count"},
    {"session.setups_ok", "count"},
    {"session.rejected_453", "count"},
    {"session.reaped_idle", "count"},
    {"session.bad_requests", "count"},
    {"session.live_sessions_peak", "count"},
    {"ingress.received", "count"},
    {"ingress.dropped_attributed", "count"},
    {"ingress.dropped_unmatched", "count"},
    {"ingress.backlog_peak", "count"},
    {"ingress.probes_per_classify", "count"},
    {"trace.host_overhead_frac", "fraction"},
};

bool is_time_unit(const std::string& unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

/// The result line's metrics, in manifest order. An absent count or
/// fraction reads 0; an absent time, or a unit other than the manifest's,
/// is a failed check.
MetricList select(const MetricList& all, const std::vector<Wanted>& wanted,
                  std::vector<std::string>& errors) {
  MetricList out;
  for (const Wanted& w : wanted) {
    const Metric* m = all.find(w.name);
    if (m == nullptr && !is_time_unit(w.unit)) {
      out.add(w.name, w.unit, 0.0);
    } else if (m == nullptr || m->unit != w.unit) {
      errors.push_back(std::string{"metric "} + w.name +
                       (m ? " has unit " + m->unit : " was not measured"));
    } else {
      out.add(m->name, m->unit, m->value);
    }
  }
  return out;
}

void write_trace_files(const Args& a, const RunResult& t) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(a.out_dir, ec);
  const std::string base = a.out_dir + "/" + a.workload;
  {
    std::ofstream f{base + "-slices.csv"};
    f << "sim_end_s,host_s,events";
    for (const auto& n : t.counter_names) f << ',' << n;
    f << '\n';
    for (const auto& s : t.slices) {
      f << s.sim_end_s << ',' << s.host_s << ',' << s.events;
      for (const double c : s.counters) f << ',' << c;
      f << '\n';
    }
  }
  {
    std::ofstream f{base + "-spans.csv"};
    f << "stream,due_ns,path_ns,dvcm_ns,net_ns\n";
    for (const auto& s : t.spans) {
      f << s.stream << ',' << s.due.raw_ns() << ','
        << (s.enqueued - s.due).raw_ns() << ','
        << (s.dispatched - s.enqueued).raw_ns() << ','
        << (s.arrived - s.dispatched).raw_ns() << '\n';
    }
  }
  std::printf("trace files: %s-slices.csv (%zu slices), %s-spans.csv (%zu "
              "frame spans)\n",
              base.c_str(), t.slices.size(), base.c_str(), t.spans.size());
}

/// Host-time profile by phase: the traced run's slices grouped in quarters.
void print_profile(const RunResult& t) {
  if (t.slices.empty()) return;
  const std::size_t n = t.slices.size();
  std::printf("host-time profile by phase (traced run):\n");
  for (std::size_t q = 0; q < 4; ++q) {
    double host = 0;
    std::uint64_t ev = 0;
    const std::size_t lo = n * q / 4, hi = n * (q + 1) / 4;
    for (std::size_t i = lo; i < hi; ++i) {
      host += t.slices[i].host_s;
      ev += t.slices[i].events;
    }
    std::printf("  sim %7.2f-%7.2f s: host %.3f s, %llu events\n",
                lo ? t.slices[lo - 1].sim_end_s : 0.0,
                t.slices[hi - 1].sim_end_s, host,
                static_cast<unsigned long long>(ev));
  }
}

void print_metrics(const char* title, const MetricList& m) {
  std::printf("%s\n", title);
  for (const auto& x : m.items()) {
    std::printf("  %-30s %18.6f %-9s %s\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload steady|storm|dense --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  // One warm-up repetition, not measured: the first run in a process pays
  // first-touch page faults and cold caches that later runs do not.
  (void)run_once(a, false);
  const auto t0 = HostClock::now();
  std::vector<std::string> errors;
  std::vector<RunResult> untraced;
  std::vector<RunResult> traced;
  std::vector<double> scale;  // reference over current host speed
  // At least two untraced repetitions (the determinism check needs a pair);
  // more while the time budget lasts.
  while (untraced.size() < 2 || host_seconds_since(t0) < a.seconds) {
    const double probe_before = speed_probe_s();
    untraced.push_back(run_once(a, false));
    scale.push_back(kProbeReferenceS /
                    (0.5 * (probe_before + speed_probe_s())));
    if (a.trace) traced.push_back(run_once(a, true));
    if (untraced.size() >= 64) break;
  }
  const RunResult& first = untraced.front();
  for (const auto& r : untraced) {
    if (r.fingerprint != first.fingerprint) {
      errors.push_back("repeated untraced runs simulated different things");
      break;
    }
  }
  for (const auto& r : traced) {
    if (r.fingerprint != first.fingerprint) {
      errors.push_back("the traced (sliced) run diverged from the untraced "
                       "run: fingerprints differ");
      break;
    }
  }
  for (const auto& e : first.errors) errors.push_back(e);
  if (!traced.empty()) {
    for (const auto& e : traced.front().errors) errors.push_back(e);
  }

  std::printf("workload %s, seed %llu, %zu untraced + %zu traced runs, "
              "fingerprint %016llx\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(first.fingerprint));
  std::printf("load (intended vs realised):\n");
  for (const auto& l : first.load) std::printf("  %s\n", l.c_str());

  std::vector<double> setup_s, frames_ps, setups_ps, run_s;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const RunResult& r = untraced[i];
    const double scaled_run = r.run_host_s * scale[i];
    setup_s.push_back(r.setup_host_s * scale[i]);
    run_s.push_back(r.run_host_s);
    frames_ps.push_back(static_cast<double>(r.frames_delivered) / scaled_run);
    setups_ps.push_back(static_cast<double>(r.setups_answered) / scaled_run);
  }
  std::printf("untraced repetitions, host CPU seconds set-up / run (wall) "
              "x speed scale:");
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::printf(" %.4f/%.3f(%.3f)x%.3f", untraced[i].setup_host_s, run_s[i],
                untraced[i].run_wall_s, scale[i]);
  }
  std::printf("\n");

  MetricList metrics;
  if (!a.trace) {
    MetricList all;
    all.add("setup_s", "s", median(setup_s),
            "median of " + std::to_string(setup_s.size()));
    all.add("frames_per_host_s", "1/s", median(frames_ps),
            "frames " + std::to_string(first.frames_delivered));
    if (first.setups_answered > 0) {
      all.add("setups_per_host_s", "1/s", median(setups_ps),
              "setups " + std::to_string(first.setups_answered));
    }
    all.add("peak_rss_mb", "MB", peak_rss_mb());
    for (const auto& m : first.sim.items()) {
      all.add(m.name, m.unit, m.value, m.note);
    }
    print_metrics("end-to-end metrics:", all);
    metrics = select(all, kEndToEnd, errors);
  } else {
    const RunResult& t = traced.front();
    MetricList layers = t.layers;
    double slice_host = 0;
    for (const auto& s : t.slices) slice_host += s.host_s;
    std::uint64_t events = 0;
    for (const auto& s : t.slices) events += s.events;
    layers.add("sim.host_ns_per_event", "ns",
               events ? 1e9 * slice_host / static_cast<double>(events) : 0);
    std::vector<double> queue_ms;
    double share[3] = {0, 0, 0};
    for (const auto& s : t.spans) {
      queue_ms.push_back((s.dispatched - s.enqueued).to_ms());
      share[0] += (s.enqueued - s.due).to_ms();
      share[1] += (s.dispatched - s.enqueued).to_ms();
      share[2] += (s.arrived - s.dispatched).to_ms();
    }
    std::sort(queue_ms.begin(), queue_ms.end());
    const double n_spans =
        std::max<double>(1.0, static_cast<double>(t.spans.size()));
    layers.add_pct("dvcm.ni_queue_ms_p99", "ms", percentile(queue_ms, 0.99));
    layers.add("path.late_share_ms", "ms", share[0] / n_spans);
    layers.add("dvcm.late_share_ms", "ms", share[1] / n_spans);
    layers.add("net.late_share_ms", "ms", share[2] / n_spans);
    std::vector<double> tr_s;
    for (const auto& r : traced) tr_s.push_back(r.run_host_s);
    const double overhead = median(tr_s) / median(run_s) - 1.0;
    layers.add("trace.host_overhead_frac", "fraction", overhead);
    std::printf("tracing overhead: traced run %.3f host-s vs untraced %.3f "
                "host-s (median of %zu each); end-to-end metrics come only "
                "from untraced runs\n",
                median(tr_s), median(run_s), tr_s.size());
    print_profile(t);
    write_trace_files(a, t);
    print_metrics("per-layer metrics (traced run):", layers);
    metrics = select(layers, kLayerMetrics, errors);
  }

  for (const auto& m : metrics.items()) {
    if (!std::isfinite(m.value)) {
      errors.push_back("metric " + m.name + " is not finite");
    }
  }
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (!errors.empty()) return 1;

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(first.attempted) + ", \"failed\": " +
                     std::to_string(first.failed) + ", \"metrics\": {";
  bool comma = false;
  for (const auto& m : metrics.items()) {
    if (comma) json += ", ";
    comma = true;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
