// dense — one apps::NiSchedulerServer (the DVCM DWCS extension on the i960
// board, shipped default representation) carrying many streams and no
// RTSP. Streams are installed directly through its StreamService at seeded
// instants across the first period, each fed by a paced synthetic producer
// on its own wind task. Offered frames/s is 75% of the NI capacity implied
// by the paper's per-frame cost (~65 us decision + 1,900-cycle dispatch
// ~ 29 us => ~10.6k frames/s), so the workload is sized by the paper's
// calibration, not by today's model. The stream working set is far larger
// than the i960 d-cache; the work is mostly DWCS picks over a large
// population, with no stream churn.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/media_server.hpp"
#include "dwcs/admission.hpp"
#include "dwcs/monitor.hpp"
#include "dwcs_probe.hpp"
#include "hw/pci.hpp"
#include "run_result.hpp"
#include "sim/random.hpp"
#include "viewer.hpp"

namespace e2e {

struct DenseSpec {
  std::size_t streams = 4096;
  double paper_capacity_fps = 1.0 / (65e-6 + 1900.0 / 66e6);
  double offered_share = 0.75;
  int periods = 6;  // media length per stream, in periods
};

inline DenseSpec dense_spec() { return DenseSpec{}; }

inline RunResult run_dense(const DenseSpec& spec, std::uint64_t seed,
                           bool traced) {
  RunResult out;
  const double cpu_setup = thread_cpu_seconds();
  sim::Rng rng{seed};
  const double offered_fps = spec.paper_capacity_fps * spec.offered_share;
  const sim::Time period =
      sim::Time::sec(static_cast<double>(spec.streams) / offered_fps);
  const sim::Time run_for =
      period * static_cast<std::int64_t>(spec.periods + 2);

  sim::Engine eng;
  hw::EthernetSwitch ether{eng};
  hw::PciBus bus{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  auto& svc = server.service();
  svc.scheduler().reserve_streams(spec.streams);
  FrameLedger ledger{eng, ether, traced ? &out.spans : nullptr};

  dwcs::WindowViolationMonitor monitor;
  svc.set_dispatch_observer([&monitor](dwcs::StreamId id,
                                       const dwcs::Dispatch& d) {
    if (monitor.known({0, id})) {
      monitor.record(id, d.late
                             ? dwcs::WindowViolationMonitor::Outcome::kLate
                             : dwcs::WindowViolationMonitor::Outcome::kOnTime);
    }
  });
  svc.set_drop_observer([&monitor](dwcs::StreamId id,
                                   const dwcs::FrameDescriptor&) {
    if (monitor.known({0, id})) {
      monitor.record(id, dwcs::WindowViolationMonitor::Outcome::kDropped);
    }
  });

  // One stream per install instant, spread across the first period.
  struct Install {
    sim::Time at;
    dwcs::WindowConstraint tolerance;
    std::uint64_t seed;
    dwcs::StreamId id = dwcs::kInvalidStream;
    apps::ProducerStats stats;
  };
  std::vector<Install> installs(spec.streams);
  for (auto& in : installs) {
    in.at = sim::Time::sec(rng.uniform() * period.to_sec());
    // Tolerances from 1/4 (tight) to 3/4 (loose).
    in.tolerance = {1 + static_cast<std::int64_t>(rng.below(3)), 4};
    in.seed = rng.next_u64();
  }
  std::sort(installs.begin(), installs.end(),
            [](const Install& a, const Install& b) { return a.at < b.at; });

  dwcs::AdmissionController admission_model{
      hw::Calibration{}.ethernet.bits_per_sec / 8.0, sim::Time::us(120),
      0.90};
  double offered_cpu = 0;
  for (Install& in : installs) {
    offered_cpu += admission_model.cpu_load(
        {.tolerance = in.tolerance, .period = period});
    eng.schedule_at(in.at, [&server, &svc, &ledger, &monitor, &in, period,
                            frames = spec.periods] {
      in.id = svc.create_stream(
          {.tolerance = in.tolerance, .period = period, .lossy = true},
          ledger.port());
      ledger.track(in.id, period, 0);
      monitor.add_stream({0, in.id}, in.tolerance);
      // One wind task per producer, as the cluster nodes' load generators.
      rtos::Task& task =
          server.kernel().spawn("tProd" + std::to_string(in.id), 120);
      apps::spawn_synthetic_producer(
          server, task, in.id,
          apps::SyntheticStreamSpec{.mean_frame_bytes = 1000,
                                    .n_frames = frames,
                                    .period = period,
                                    .seed = in.seed},
          in.stats);
    });
  }

  out.counter_names = {"ni_busy_s", "dispatched"};
  Slicer slicer{traced, sim::Time::ms(250),
                [&] {
                  return std::vector<double>{
                      server.kernel().ni_cpu_busy().to_sec(),
                      static_cast<double>(svc.dispatched())};
                },
                out};
  out.setup_host_s = thread_cpu_seconds() - cpu_setup;

  const double cpu_run = thread_cpu_seconds();
  const auto wall_run = HostClock::now();
  ledger.set_cutoff(run_for);
  slicer.advance(eng, run_for);
  out.run_host_s = thread_cpu_seconds() - cpu_run;
  out.run_wall_s = host_seconds_since(wall_run);

  // ---- outcomes ------------------------------------------------------------
  std::uint64_t frames_due = 0, on_time = 0, produced = 0;
  Fingerprint fp;
  double seg_ms = 0, enq_ms = 0;
  std::uint64_t seg_n = 0;
  for (const auto& in : installs) {
    // Frame k of a stream is produced at its install + k periods and due one
    // period later; frames due after the run's end are not counted.
    const sim::Time left = run_for - in.at - period;
    const auto due = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(spec.periods),
        left < sim::Time::zero()
            ? 0
            : static_cast<std::uint64_t>(left / period) + 1);
    frames_due += due;
    on_time += std::min(due, ledger.on_time(in.id));
    produced += in.stats.frames_produced;
    fp.add(in.stats.frames_produced);
    fp.add(in.id);
    if (const auto* st = in.stats.stage("segment")) {
      seg_ms += st->sum();
      seg_n += st->count();
    }
    if (const auto* st = in.stats.stage("enqueue")) enq_ms += st->sum();
  }
  auto& late = ledger.lateness_ms();
  std::sort(late.begin(), late.end());

  const std::uint64_t frames = ledger.total_delivered();
  const sim::Time busy = server.kernel().ni_cpu_busy();
  const double sim_s = run_for.to_sec();
  out.frames_delivered = frames;
  out.attempted = frames_due;

  out.sim.add_pct("frame_late_ms_p50", "ms", percentile(late, 0.50));
  out.sim.add_pct("frame_late_ms_p99", "ms", percentile(late, 0.99));
  out.sim.add("on_time_frac", "fraction",
              frames_due ? static_cast<double>(on_time) /
                               static_cast<double>(frames_due)
                         : 0.0,
              "due=" + std::to_string(frames_due));
  out.sim.add("window_kept_frac", "fraction",
              1.0 - static_cast<double>(monitor.violating_streams()) /
                        static_cast<double>(installs.size()),
              "streams=" + std::to_string(installs.size()));
  out.sim.add("frames_per_sim_s", "1/s", static_cast<double>(frames) / sim_s);
  out.sim.add("ni_us_per_frame", "us",
              frames ? busy.to_us() / static_cast<double>(frames) : 0.0);

  if (ledger.tiling_errors() != 0) {
    out.errors.push_back("frame lateness shares do not tile the total");
  }
  if (ledger.stray_frames() != 0) {
    out.errors.push_back("frames arrived for streams nobody installed");
  }

  {
    char line[240];
    std::snprintf(line, sizeof line,
                  "dense: %zu streams, period %.3f s, offered %.0f frames/s "
                  "= %.0f%% of paper-cost capacity %.0f frames/s; delivered "
                  "%.0f frames/sim-s",
                  spec.streams, period.to_sec(), offered_fps,
                  100.0 * spec.offered_share, spec.paper_capacity_fps,
                  static_cast<double>(frames) / sim_s);
    out.load.emplace_back(line);
    std::snprintf(line, sizeof line, "rtos.ni_busy_frac %.4f",
                  busy.to_sec() / sim_s);
    out.load.emplace_back(line);
  }

  auto& L = out.layers;
  L.add("sim.events", "count", static_cast<double>(eng.events_executed()));
  L.add("rtos.ni_busy_frac", "fraction", busy.to_sec() / sim_s);
  L.add("rtos.context_switches", "count",
        static_cast<double>(server.kernel().scheduler().context_switches()));
  L.add("hw.ni_cycles", "count",
        static_cast<double>(server.board().cpu().cycles()));
  L.add("hw.ether_bytes_switched", "bytes",
        static_cast<double>(ether.bytes_switched()));
  L.add("hw.ether_frames_lost", "count",
        static_cast<double>(ether.frames_lost()));
  L.add("dwcs.decisions", "count",
        static_cast<double>(svc.scheduler().decisions()));
  // Every CpuModel charge on the NI comes from the DWCS cost hook: the
  // simulated time the scheduler spent per decision in this run, late
  // processing included.
  L.add("dwcs.run_sim_us_per_decision", "us",
        svc.scheduler().decisions()
            ? server.board().cpu().time_of(server.board().cpu().cycles()).to_us() /
                  static_cast<double>(svc.scheduler().decisions())
            : 0.0);
  L.add("dwcs.violations", "count",
        static_cast<double>(svc.scheduler().total_violations()));
  L.add("dvcm.dispatched", "count", static_cast<double>(svc.dispatched()));
  L.add("dvcm.ring_full_rejects", "count",
        static_cast<double>(svc.rejected_ring_full()));
  L.add("path.frames_pumped", "count", static_cast<double>(produced));
  for (const std::uint64_t v :
       {frames, svc.dispatched(), svc.rejected_ring_full(),
        svc.scheduler().decisions(), svc.scheduler().total_violations(),
        monitor.violating_streams(), produced, ether.bytes_switched(),
        static_cast<std::uint64_t>(busy.raw_ns()), eng.events_executed()}) {
    fp.add(v);
  }
  for (const double d : late) fp.add_double(d);
  out.fingerprint = fp.h;

  if (traced) {
    L.add("dwcs.admission_cpu_util", "fraction", offered_cpu);
    L.add("path.stage_us.segment", "us",
          seg_n ? 1000.0 * seg_ms / static_cast<double>(seg_n) : 0.0);
    L.add("path.stage_us.enqueue", "us",
          seg_n ? 1000.0 * enq_ms / static_cast<double>(seg_n) : 0.0);
    const DwcsProbe probe = probe_dwcs(svc.scheduler().config(),
                                       spec.streams, period, 3000, seed);
    L.add("dwcs.host_ns_per_decision", "ns", probe.host_ns_per_decision);
    L.add("dwcs.sim_cycles_per_decision", "cycles",
          probe.sim_cycles_per_decision);
    L.add("dwcs.mem_words_per_decision", "count",
          probe.mem_words_per_decision);
  }
  return out;
}

}  // namespace e2e
