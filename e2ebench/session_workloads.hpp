// The two workloads that drive session::SessionServer through RTSP.
//
//  * steady — one tenant at its normal operating point: a stationary viewer
//    population near the admission capacity (an initial cohort with
//    residual media lengths, then Poisson arrivals at the rate that keeps
//    ~105% of capacity offered), MPEG-1 streams (33 ms period, ~1000 B
//    frames) of tens of seconds, mostly polite viewers plus a minority that
//    pause and resume. The per-frame data plane does the work.
//  * storm — four tenants, one of them hostile. SETUP arrivals climb a
//    staircase of offered rates from well under the control task's budget to
//    well over it; the hostile tenant sends ten times its share of SETUPs and
//    sprays raw packets at an IngressDemux whose FlowTable holds tens of
//    thousands of rules. The front door, TCP-lite and ingress classification
//    do the work; victims' QoS tests isolation per tenant.
//
// Arrival times are a Poisson process conditioned on its count (sorted
// uniform draws), so each run offers exactly the intended number of SETUPs
// and the seed moves only their placement, the viewer mix and media lengths.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dwcs_probe.hpp"
#include "ingress/demux.hpp"
#include "ingress/flow_table.hpp"
#include "run_result.hpp"
#include "session/rtsp.hpp"
#include "session/server.hpp"
#include "sim/random.hpp"
#include "viewer.hpp"

namespace e2e {

/// SETUP latency bound of the rate-at-SLO search, and the answer deadline
/// of setup_slo_frac.
inline constexpr double kSetupP99SloMs = 100.0;
inline constexpr double kSetupAnswerSloMs = 1000.0;

struct SessionSpec {
  bool storm = false;
  // steady
  std::size_t cohort = 0;        // viewers present at t=0
  std::size_t arrivals = 0;      // Poisson arrivals after the cohort
  sim::Time arrive_from, arrive_until;
  // storm staircase: offered SETUP rate per step, each `step_len` long
  std::vector<double> step_rates;
  sim::Time step_len;
  std::size_t flows = 0;         // exact FlowTable rules
  double spray_per_setup = 0;    // raw packets per SETUP
  // both
  sim::Time period;
  std::uint64_t min_frames = 0, max_frames = 0;
  sim::Time run_for;
};

inline SessionSpec steady_spec() {
  SessionSpec s;
  s.cohort = 160;
  // ~105% of the 247-stream admission capacity offered: mean media 20 s
  // plus pause time, so 260 concurrent viewers arrive at ~12.4/s.
  s.arrivals = 940;
  s.arrive_from = sim::Time::sec(1);
  s.arrive_until = sim::Time::sec(121);
  s.period = sim::Time::ms(33);
  s.min_frames = 300;
  s.max_frames = 900;
  s.run_for = sim::Time::sec(124);
  return s;
}

inline SessionSpec storm_spec() {
  SessionSpec s;
  s.storm = true;
  s.step_rates = {1000, 2000, 4000, 8000, 16000, 32000, 64000};
  s.step_len = sim::Time::ms(500);
  s.flows = 65536;
  s.spray_per_setup = 1.25;
  s.period = sim::Time::ms(33);
  // Short sessions, so capacity turns over during the staircase and late
  // admissions show in setup_slo_frac.
  s.min_frames = 15;
  s.max_frames = 45;
  s.run_for = sim::Time::sec(12);
  return s;
}

namespace detail {

inline std::vector<sim::Time> conditioned_poisson(sim::Rng& rng,
                                                  std::size_t n,
                                                  sim::Time from,
                                                  sim::Time until) {
  std::vector<sim::Time> t(n);
  const double span = (until - from).to_sec();
  for (auto& x : t) x = from + sim::Time::sec(rng.uniform() * span);
  std::sort(t.begin(), t.end());
  return t;
}

/// Scale-sweep-style rule set: `flows` exact rules over tenants 1..4 split
/// between a full-tuple and a host-pair category.
inline void populate_flow_table(ingress::FlowTable& table, std::size_t flows) {
  const auto full = table.add_category(ingress::kMatchFullTuple, flows / 2 + 1);
  const auto host = table.add_category(
      ingress::kMatchSrcIp | ingress::kMatchDstIp | ingress::kMatchProto,
      flows / 2 + 1);
  for (dwcs::StreamId s = 0; s < flows; ++s) {
    const ingress::TenantId tenant = 1 + (s & 3u);
    ingress::FlowKey k = ingress::flow_key_of(tenant, s);
    if (s % 2 != 0) {
      k.src_ip = ingress::tenant_prefix_of(tenant) | (s & 0xFFFFu);
      k.dst_ip = 0xC0A8'0000u | (s >> 16);
    }
    (void)table.insert(s % 2 == 0 ? full : host, k, tenant, s);
  }
}

}  // namespace detail

inline RunResult run_session_workload(const SessionSpec& spec,
                                      std::uint64_t seed, bool traced) {
  RunResult out;
  const double cpu_setup = thread_cpu_seconds();
  sim::Rng rng{seed};
  sim::Engine eng;
  hw::EthernetSwitch ether{eng};

  session::SessionServer::Config cfg;
  const std::vector<std::string> tenant_names =
      spec.storm ? std::vector<std::string>{"flood", "v1", "v2", "v3"}
                 : std::vector<std::string>{};
  for (const auto& name : tenant_names) {
    cfg.tenants.emplace_back(
        name, ingress::TenantBudget{.link_share = 0.25, .cpu_share = 0.25});
  }
  session::SessionServer server{eng, ether, cfg};

  ingress::FlowTable table{{.trie_nodes = 4096, .trie_rules = 64}};
  std::unique_ptr<ingress::IngressDemux> demux;
  ingress::TenantId flooder = 0;
  if (spec.storm) {
    detail::populate_flow_table(table, spec.flows);
    flooder = server.tenants().resolve("flood");
    (void)table.insert_prefix(ingress::tenant_prefix_of(flooder), 16,
                              flooder);
    demux = std::make_unique<ingress::IngressDemux>(
        eng, ether, server.kernel(), table, server.service());
  }

  FrameLedger ledger{eng, ether, traced ? &out.spans : nullptr};
  std::uint64_t rtcp_reports = 0;
  net::UdpEndpoint rtcp_sink{eng, ether, net::kHostStackCost,
                             [&rtcp_reports](const net::Packet&, sim::Time) {
                               ++rtcp_reports;
                             }};
  std::vector<std::string> requests;
  std::vector<std::unique_ptr<Viewer>> viewers;

  const auto media_frames = [&](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng.below(hi - lo + 1);
  };
  const auto add_viewer = [&](Viewer::Config c) {
    c.period = spec.period;
    c.frame_bytes = static_cast<std::uint32_t>(900 + rng.below(201));
    viewers.push_back(std::make_unique<Viewer>(
        eng, ether, server.control_port(), ledger, rtcp_sink.port(), c,
        traced ? &requests : nullptr));
  };

  // Raw spray schedule (storm): one entry per packet, with its source.
  struct Spray {
    sim::Time at;
    bool attributed;
    std::uint64_t key;
  };
  std::vector<Spray> spray;

  if (!spec.storm) {
    for (std::size_t i = 0; i < spec.cohort; ++i) {
      Viewer::Config c;
      c.arrival = sim::Time::sec(rng.uniform() * spec.arrive_from.to_sec());
      c.frames = media_frames(30, spec.max_frames);
      c.kind = rng.chance(0.2) ? Viewer::Kind::kPauseResume
                               : Viewer::Kind::kPolite;
      add_viewer(c);
    }
    for (const sim::Time t : detail::conditioned_poisson(
             rng, spec.arrivals, spec.arrive_from, spec.arrive_until)) {
      Viewer::Config c;
      c.arrival = t;
      c.frames = media_frames(spec.min_frames, spec.max_frames);
      c.kind = rng.chance(0.2) ? Viewer::Kind::kPauseResume
                               : Viewer::Kind::kPolite;
      add_viewer(c);
    }
  } else {
    sim::Time step_start = sim::Time::zero();
    for (std::size_t st = 0; st < spec.step_rates.size(); ++st) {
      const auto n = static_cast<std::size_t>(
          spec.step_rates[st] * spec.step_len.to_sec());
      for (const sim::Time t : detail::conditioned_poisson(
               rng, n, step_start, step_start + spec.step_len)) {
        Viewer::Config c;
        c.arrival = t;
        c.step = static_cast<int>(st);
        // Ten shares of SETUPs for the flooder, one per victim: 10/13.
        const std::uint64_t who = rng.below(13);
        c.group = who < 10 ? 0 : static_cast<int>(who - 9);
        c.uri = "rtsp://ni/" + tenant_names[static_cast<std::size_t>(
                                   c.group)] + "/movie";
        c.frames = media_frames(spec.min_frames, spec.max_frames);
        c.pause_after = sim::Time::ms(500);
        c.pause_for = sim::Time::ms(300);
        const std::uint64_t mix = rng.below(100);
        c.kind = mix < 55   ? Viewer::Kind::kPolite
                 : mix < 70 ? Viewer::Kind::kSlowStart
                 : mix < 85 ? Viewer::Kind::kVanish
                            : Viewer::Kind::kPauseResume;
        add_viewer(c);
      }
      const auto packets =
          static_cast<std::size_t>(static_cast<double>(n) *
                                   spec.spray_per_setup);
      for (const sim::Time t : detail::conditioned_poisson(
               rng, packets, step_start, step_start + spec.step_len)) {
        const bool attributed = rng.chance(0.5);
        spray.push_back({t, attributed, rng.next_u64()});
      }
      step_start = step_start + spec.step_len;
    }
    std::sort(spray.begin(), spray.end(),
              [](const Spray& a, const Spray& b) { return a.at < b.at; });
  }

  net::UdpEndpoint spray_tx{eng, ether, net::kHostStackCost,
                            net::UdpEndpoint::Receiver{}};
  const auto spray_flow = [&](const Spray& s) {
    // Stream ids past 2^20 exist in no rule: the flooder's half is caught
    // by its /16 prefix, the rest by nothing.
    const auto stream =
        static_cast<dwcs::StreamId>((1u << 20) | (s.key & 0xFFFFu));
    return s.attributed ? ingress::pack_flow(flooder, stream)
                        : ingress::pack_flow(99, stream);
  };
  if (demux) {
    [](sim::Engine& e, net::UdpEndpoint& tx, int port,
       const std::vector<Spray>& plan,
       decltype(spray_flow)& flow) -> sim::Coro {
      for (const Spray& s : plan) {
        if (s.at > e.now()) co_await sim::Delay{e, s.at - e.now()};
        net::Packet p;
        p.stream_id = flow(s);
        p.bytes = 200;
        tx.send(port, p);
      }
    }(eng, spray_tx, demux->port(), spray, spray_flow)
        .detach();
  }
  for (auto& v : viewers) v->start();

  // Slice samples: live sessions, demux backlog, admission CPU use.
  out.counter_names = {"live_sessions", "ingress_backlog",
                       "admission_cpu_util", "ni_busy_s"};
  Slicer slicer{traced, sim::Time::ms(250),
                [&] {
                  return std::vector<double>{
                      static_cast<double>(server.door().live_sessions()),
                      demux ? static_cast<double>(demux->backlog()) : 0.0,
                      server.admission().cpu_utilization(),
                      server.kernel().ni_cpu_busy().to_sec()};
                },
                out};
  // Frames due are counted up to the cutoff, so arrivals after it do not
  // count as on time either.
  const sim::Time cutoff = spec.run_for - sim::Time::sec(1);
  ledger.set_cutoff(cutoff);
  out.setup_host_s = thread_cpu_seconds() - cpu_setup;

  const double cpu_run = thread_cpu_seconds();
  const auto wall_run = HostClock::now();
  slicer.advance(eng, spec.run_for);
  out.run_host_s = thread_cpu_seconds() - cpu_run;
  out.run_wall_s = host_seconds_since(wall_run);

  // ---- client-side outcomes ------------------------------------------
  std::vector<double> setup_ms;
  std::uint64_t answered = 0, ok_in_slo = 0, admitted = 0;
  std::uint64_t frames_due = 0, frames_on_time = 0;
  std::uint64_t victims_admitted = 0;
  Fingerprint fp;
  const std::size_t steps = spec.storm ? spec.step_rates.size() : 1;
  std::vector<std::vector<double>> step_lat(steps);
  std::vector<std::uint64_t> step_answered(steps, 0);
  // First and last arrival per step: the realised offered rate.
  std::vector<sim::Time> step_first(steps, sim::Time::never());
  std::vector<sim::Time> step_last(steps, sim::Time::zero());
  for (const auto& v : viewers) {
    const auto& o = v->outcome();
    const auto& c = v->config();
    const bool got = o.setup_answered != sim::Time::never();
    const double ms = got ? (o.setup_answered - o.setup_sent).to_ms()
                          : std::numeric_limits<double>::infinity();
    setup_ms.push_back(ms);
    if (got) ++answered;
    // Steady's single step is its Poisson window; the t=0 cohort that
    // fills the server is set-up traffic, not the offered rate.
    if (spec.storm || c.arrival >= spec.arrive_from) {
      const auto st = static_cast<std::size_t>(c.step);
      step_lat[st].push_back(ms);
      step_first[st] = std::min(step_first[st], c.arrival);
      step_last[st] = std::max(step_last[st], c.arrival);
      if (got) ++step_answered[st];
    }
    if (o.status == 200 && ms <= kSetupAnswerSloMs) ++ok_in_slo;
    fp.add(static_cast<std::uint64_t>(o.status));
    fp.add(static_cast<std::uint64_t>(o.play_status));
    fp.add(static_cast<std::uint64_t>(o.setup_answered.raw_ns()));
    fp.add(o.stream);
    fp.add(o.cseq_errors);
    fp.add(o.completed ? 1 : 0);
    if (o.status != 200) continue;
    ++admitted;
    // Victim QoS in storm; every stream in steady.
    if (spec.storm && c.group == 0) continue;
    ++victims_admitted;
    if (o.play_ok < cutoff) {
      const sim::Time playing = cutoff - o.play_ok - o.paused_total;
      const auto periods =
          static_cast<std::uint64_t>(std::max(0.0, playing / c.period)) + 1;
      const std::uint64_t due = std::min<std::uint64_t>(c.frames, periods);
      frames_due += due;
      frames_on_time += std::min(due, ledger.on_time(o.stream));
    }
  }
  std::sort(setup_ms.begin(), setup_ms.end());

  // Streams whose (x, y) window broke at least once.
  auto& mon = server.monitor();
  std::uint64_t violating = 0;
  if (spec.storm) {
    for (std::size_t t = 1; t < tenant_names.size(); ++t) {
      violating += mon.scope_violating_streams(
          server.tenants().resolve(tenant_names[t]));
    }
  } else {
    violating = mon.violating_streams();
  }

  // Frame lateness over the measured streams (victims in storm).
  std::vector<double> late;
  {
    const auto& lm = ledger.lateness_ms();
    const auto& lg = ledger.lateness_group();
    late.reserve(lm.size());
    for (std::size_t i = 0; i < lm.size(); ++i) {
      if (!spec.storm || lg[i] != 0) late.push_back(lm[i]);
    }
    std::sort(late.begin(), late.end());
  }

  const auto& door = server.door().stats();
  const double sim_s = spec.run_for.to_sec();
  const std::uint64_t frames = ledger.total_delivered();
  out.frames_delivered = frames;
  out.setups_answered = answered;
  out.attempted = viewers.size() + frames_due;
  out.failed = viewers.size() - answered;

  // setup_rate_at_slo: highest staircase step (steady has one step) whose
  // SETUPs were all answered with p99 <= 100 ms and after which the
  // client-side backlog of unanswered SETUPs had not grown; reported as
  // the step's realised offered rate (arrivals over the span from its first
  // to its last arrival).
  double rate_at_slo = 0;
  {
    sim::Time step_start = spec.storm ? sim::Time::zero() : spec.arrive_from;
    const sim::Time len =
        spec.storm ? spec.step_len : spec.arrive_until - spec.arrive_from;
    std::uint64_t backlog_before = 0;
    for (std::size_t st = 0; st < steps; ++st) {
      auto lat = step_lat[st];
      std::sort(lat.begin(), lat.end());
      const Pct p99 = percentile(lat, 0.99);
      // Backlog: SETUPs fully sent more than the SLO bound ago and still
      // unanswered at the end of the step.
      const sim::Time end = step_start + len;
      const sim::Time stale = end - sim::Time::ms(kSetupP99SloMs);
      std::uint64_t backlog_after = 0;
      for (const auto& v : viewers) {
        const auto& o = v->outcome();
        if (v->config().arrival <= stale && o.setup_sent <= stale &&
            o.setup_answered > end) {
          ++backlog_after;
        }
      }
      const bool pass = step_answered[st] == lat.size() && !lat.empty() &&
                        p99.value <= kSetupP99SloMs &&
                        backlog_after <= backlog_before + lat.size() / 100;
      const double realised =
          step_last[st] > step_first[st]
              ? static_cast<double>(lat.size() - 1) /
                    (step_last[st] - step_first[st]).to_sec()
              : 0.0;
      char line[200];
      std::snprintf(line, sizeof line,
                    "setup step %zu: offered %.0f/s, realised %.1f/s, "
                    "p99 %.2f ms (q=%.4f n=%zu), backlog %llu -> %llu: %s",
                    st,
                    spec.storm ? spec.step_rates[st]
                               : static_cast<double>(spec.arrivals) /
                                     len.to_sec(),
                    realised, p99.value,
                    p99.q, p99.n,
                    static_cast<unsigned long long>(backlog_before),
                    static_cast<unsigned long long>(backlog_after),
                    pass ? "within SLO" : "over SLO");
      out.load.emplace_back(line);
      if (!pass) break;
      rate_at_slo = realised;
      backlog_before = backlog_after;
      step_start = end;
    }
  }

  const sim::Time busy = server.kernel().ni_cpu_busy();
  out.sim.add_pct("setup_ms_p50", "ms", percentile(setup_ms, 0.50));
  // Steady's SETUP tail rides on a handful of dispatch bursts per run; its
  // seed-to-seed spread is wider than any usable bound, so only the storm,
  // whose tail is the control-plane backlog, reports it.
  if (spec.storm) {
    out.sim.add_pct("setup_ms_p99", "ms", percentile(setup_ms, 0.99));
  }
  out.sim.add("setup_slo_frac", "fraction",
              static_cast<double>(ok_in_slo) /
                  static_cast<double>(viewers.size()),
              "n=" + std::to_string(viewers.size()));
  if (spec.storm) out.sim.add("setup_rate_at_slo", "1/s", rate_at_slo);
  out.sim.add_pct("frame_late_ms_p50", "ms", percentile(late, 0.50));
  out.sim.add_pct("frame_late_ms_p99", "ms", percentile(late, 0.99));
  out.sim.add("on_time_frac", "fraction",
              frames_due ? static_cast<double>(frames_on_time) /
                               static_cast<double>(frames_due)
                         : 0.0,
              "due=" + std::to_string(frames_due));
  out.sim.add("window_kept_frac", "fraction",
              victims_admitted
                  ? 1.0 - static_cast<double>(violating) /
                              static_cast<double>(victims_admitted)
                  : 0.0,
              "streams=" + std::to_string(victims_admitted));
  out.sim.add("frames_per_sim_s", "1/s", static_cast<double>(frames) / sim_s);
  out.sim.add("ni_us_per_frame", "us",
              frames ? busy.to_us() / static_cast<double>(frames) : 0.0);

  // ---- correctness ------------------------------------------------------
  if (door.post_play_admission_violations != 0) {
    out.errors.push_back("post-PLAY admission violations");
  }
  if (answered + (viewers.size() - answered) != viewers.size() ||
      door.setups_ok + door.rejected_453 != answered) {
    out.errors.push_back("SETUP attempts not all accounted (answered " +
                         std::to_string(answered) + ", 200+453 " +
                         std::to_string(door.setups_ok + door.rejected_453) +
                         ")");
  }
  if (answered != viewers.size()) {
    out.errors.push_back(std::to_string(viewers.size() - answered) +
                         " SETUPs unanswered at run end");
  }
  if (ledger.tiling_errors() != 0) {
    out.errors.push_back("frame lateness shares do not tile the total");
  }
  if (ledger.stray_frames() != 0) {
    out.errors.push_back("frames arrived for streams no viewer owns");
  }
  if (demux) {
    const auto& d = demux->stats();
    if (d.received != d.delivered + d.dropped_rule + d.dropped_attributed +
                          d.dropped_unmatched + d.ring_full) {
      out.errors.push_back("demux verdicts do not sum to packets received");
    }
    if (d.received + demux->backlog() != spray.size()) {
      out.errors.push_back("demux lost raw packets");
    }
    if (d.delivered != 0) out.errors.push_back("raw spray reached a ring");
  }

  // ---- realised load -----------------------------------------------------
  {
    char line[200];
    if (!spec.storm) {
      // Time-averaged admitted sessions over the Poisson window, from the
      // viewers' own SETUP answers and TEARDOWNs.
      const sim::Time w0 = spec.arrive_from, w1 = spec.arrive_until;
      double session_s = 0;
      for (const auto& v : viewers) {
        const auto& o = v->outcome();
        if (o.status != 200) continue;
        const sim::Time a = std::max(o.setup_answered, w0);
        const sim::Time b = std::min(o.torn_down, w1);
        if (b > a) session_s += (b - a).to_sec();
      }
      std::snprintf(line, sizeof line,
                    "steady-state concurrent sessions %.1f vs admission "
                    "capacity %.0f streams; %llu of %zu SETUPs admitted",
                    session_s / (w1 - w0).to_sec(),
                    std::floor(cfg.admission_headroom /
                               (cfg.per_frame_cpu / spec.period)),
                    static_cast<unsigned long long>(admitted),
                    viewers.size());
    } else {
      std::snprintf(line, sizeof line,
                    "storm: %zu SETUPs (%llu admitted), %zu raw packets, "
                    "%zu exact rules",
                    viewers.size(), static_cast<unsigned long long>(admitted),
                    spray.size(), spec.flows);
    }
    out.load.emplace_back(line);
    std::snprintf(line, sizeof line, "rtos.ni_busy_frac %.4f",
                  busy.to_sec() / sim_s);
    out.load.emplace_back(line);
  }

  // ---- per-layer counters (read from the same run) ----------------------
  auto& svc = server.service();
  auto& L = out.layers;
  L.add("sim.events", "count", static_cast<double>(eng.events_executed()));
  L.add("rtos.ni_busy_frac", "fraction", busy.to_sec() / sim_s);
  L.add("rtos.context_switches", "count",
        static_cast<double>(server.kernel().scheduler().context_switches()));
  L.add("hw.ni_cycles", "count",
        static_cast<double>(server.kernel().cpu().cycles()));
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
            ? server.kernel().cpu().time_of(server.kernel().cpu().cycles()).to_us() /
                  static_cast<double>(svc.scheduler().decisions())
            : 0.0);
  L.add("dwcs.violations", "count",
        static_cast<double>(svc.scheduler().total_violations()));
  L.add("dvcm.dispatched", "count", static_cast<double>(svc.dispatched()));
  L.add("dvcm.ring_full_rejects", "count",
        static_cast<double>(svc.rejected_ring_full()));
  L.add("path.frames_pumped", "count", static_cast<double>(door.frames_pumped));
  const auto& rx = server.door().control_rx();
  L.add("net.ctl_rx_delivered", "count", static_cast<double>(rx.delivered()));
  L.add("net.ctl_rx_discarded", "count",
        static_cast<double>(rx.discarded_out_of_order()));
  L.add("net.ctl_useful_frac", "fraction",
        rx.delivered() + rx.discarded_out_of_order()
            ? static_cast<double>(rx.delivered()) /
                  static_cast<double>(rx.delivered() +
                                      rx.discarded_out_of_order())
            : 0.0);
  L.add("session.requests", "count", static_cast<double>(door.requests));
  L.add("session.setups_ok", "count", static_cast<double>(door.setups_ok));
  L.add("session.rejected_453", "count",
        static_cast<double>(door.rejected_453));
  L.add("session.reaped_idle", "count", static_cast<double>(door.reaped_idle));
  L.add("session.bad_requests", "count",
        static_cast<double>(door.bad_requests));
  const ingress::IngressDemux::Stats dstats =
      demux ? demux->stats() : ingress::IngressDemux::Stats{};
  if (demux) {
    L.add("ingress.received", "count", static_cast<double>(dstats.received));
    L.add("ingress.dropped_attributed", "count",
          static_cast<double>(dstats.dropped_attributed));
    L.add("ingress.dropped_unmatched", "count",
          static_cast<double>(dstats.dropped_unmatched));
    const auto ts = table.stats();
    L.add("ingress.probes_per_classify", "count",
          ts.lookups ? static_cast<double>(ts.probes) /
                           static_cast<double>(ts.lookups)
                     : 0.0);
  }

  for (const std::uint64_t v :
       {door.requests, door.bad_requests, door.setups_ok, door.rejected_453,
        door.tenant_rejected_453, door.plays, door.resumes, door.pauses,
        door.teardowns, door.reaped_idle, door.conn_closed, door.eos,
        door.frames_pumped, door.post_play_admission_violations, frames,
        rtcp_reports, svc.dispatched(), svc.rejected_ring_full(),
        svc.scheduler().decisions(), svc.scheduler().total_violations(),
        violating, dstats.received, dstats.dropped_attributed,
        dstats.dropped_unmatched, ether.bytes_switched(),
        static_cast<std::uint64_t>(busy.raw_ns()), eng.events_executed()}) {
    fp.add(v);
  }
  for (const double d : ledger.lateness_ms()) fp.add_double(d);
  out.fingerprint = fp.h;

  if (traced) {
    // Host-clock spans around single layers, over this run's own inputs.
    L.add("session.live_sessions_peak", "count", slice_peak(out, 0));
    if (demux) L.add("ingress.backlog_peak", "count", slice_peak(out, 1));
    L.add("dwcs.admission_cpu_util", "fraction", slice_mean(out, 2));
    {
      double ns = 0;
      std::uint64_t parsed = 0;
      for (const auto& text : requests) {
        session::MessageBuffer buf;
        const auto h0 = HostClock::now();
        buf.append(text);
        while (auto msg = buf.next()) {
          parsed += session::parse_request(*msg).has_value();
        }
        ns += std::chrono::duration<double, std::nano>(HostClock::now() - h0)
                  .count();
      }
      if (parsed != requests.size()) {
        out.errors.push_back("the RTSP parser rejected a request it was sent");
      }
      L.add("session.host_ns_per_request", "ns",
            requests.empty() ? 0.0 : ns / static_cast<double>(requests.size()));
    }
    if (demux) {
      double ns = 0;
      for (const Spray& s : spray) {
        const net::Packet p{.stream_id = spray_flow(s)};
        const ingress::FlowKey k = ingress::packet_flow_key(p);
        const auto h0 = HostClock::now();
        const auto d = table.classify(k);
        ns += std::chrono::duration<double, std::nano>(HostClock::now() - h0)
                  .count();
        if (d.match == ingress::Match::kExact) {
          out.errors.push_back("spray key matched an exact rule");
          break;
        }
      }
      L.add("ingress.host_ns_per_classify", "ns",
            spray.empty() ? 0.0 : ns / static_cast<double>(spray.size()));
    }
    const auto population =
        static_cast<std::size_t>(std::max(1.0, slice_mean(out, 0)));
    const DwcsProbe probe =
        probe_dwcs(svc.scheduler().config(), population, spec.period,
                   20000, seed);
    L.add("dwcs.host_ns_per_decision", "ns", probe.host_ns_per_decision);
    L.add("dwcs.sim_cycles_per_decision", "cycles",
          probe.sim_cycles_per_decision);
    L.add("dwcs.mem_words_per_decision", "count",
          probe.mem_words_per_decision);
  }
  return out;
}

}  // namespace e2e
