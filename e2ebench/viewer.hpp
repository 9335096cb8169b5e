// The benchmark's client side: open-loop RTSP viewers and the frame ledger
// that every delivered media frame lands in.
//
// The ledger gives each frame a due time on its stream's pacing grid and
// splits the frame's lateness into three shares that tile it exactly:
//   path = enqueued_at - due        (producer stages; negative by the
//                                    producer's read-ahead)
//   dvcm = dispatched_at - enqueued_at  (ring wait + DWCS decision)
//   net  = arrival - dispatched_at   (stacks and wire)
// The grid of one play segment (PLAY to PAUSE, or a whole stream) is fixed
// by its first delivered frame: that frame's dispatch time is its due time,
// and frame k periods later in the producer's sequence — k taken from the
// enqueue timestamps, which the producer writes on its own period grid — is
// due k periods later. Frames the server never sent never reach the ledger;
// on-time fractions divide by frames due, which the workloads count from
// the viewers' own schedules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/ethernet.hpp"
#include "net/tcplite.hpp"
#include "net/udp.hpp"
#include "session/rtsp.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"

namespace e2e {

using namespace nistream;

struct FrameSpan {
  std::uint32_t stream = 0;
  sim::Time due, enqueued, dispatched, arrived;
};

class FrameLedger {
 public:
  /// `spans` non-null records every frame's span (the traced run).
  FrameLedger(sim::Engine& engine, hw::EthernetSwitch& ether,
              std::vector<FrameSpan>* spans)
      : spans_{spans},
        rx_{engine, ether, net::kHostStackCost,
            [this](const net::Packet& p, sim::Time at) { receive(p, at); }} {}

  FrameLedger(const FrameLedger&) = delete;
  FrameLedger& operator=(const FrameLedger&) = delete;

  [[nodiscard]] int port() const { return rx_.port(); }

  /// Declare a stream before its frames can arrive. `group` tags the
  /// stream for per-group on-time counting (tenant index, or 0).
  void track(dwcs::StreamId id, sim::Time period, int group) {
    if (id >= streams_.size()) streams_.resize(id + 1);
    Track& t = streams_[id];
    t = Track{};
    t.period = period;
    t.group = group;
    t.known = true;
  }

  /// Frames enqueued after `at` start a new play segment (sent PLAY after a
  /// PAUSE: the producer's grid restarts there).
  void new_segment_after(dwcs::StreamId id, sim::Time at) {
    Track& t = streams_.at(id);
    t.segment_after = at;
    t.resegment = true;
  }

  /// Frames of one stream that arrived by the cutoff and within one period
  /// of their due time.
  [[nodiscard]] std::uint64_t on_time(dwcs::StreamId id) const {
    return id < streams_.size() ? streams_[id].on_time : 0;
  }

  [[nodiscard]] std::uint64_t total_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t stray_frames() const { return stray_; }
  [[nodiscard]] std::uint64_t tiling_errors() const { return tiling_errors_; }
  /// Lateness of every delivered frame (ms), and its stream's group.
  [[nodiscard]] std::vector<double>& lateness_ms() { return late_ms_; }
  [[nodiscard]] const std::vector<int>& lateness_group() const {
    return late_group_;
  }
  /// Arrivals after this instant are not counted on time (run cutoff).
  void set_cutoff(sim::Time t) { cutoff_ = t; }

 private:
  struct Track {
    sim::Time period;
    sim::Time anchor_enq, anchor_due, segment_after;
    std::uint64_t on_time = 0;
    int group = 0;
    bool known = false;
    bool anchored = false;
    bool resegment = false;
  };

  void receive(const net::Packet& p, sim::Time at) {
    const auto id = static_cast<std::size_t>(p.stream_id);
    if (id >= streams_.size() || !streams_[id].known) {
      ++stray_;
      return;
    }
    Track& t = streams_[id];
    if (!t.anchored || (t.resegment && p.enqueued_at > t.segment_after)) {
      t.anchor_enq = p.enqueued_at;
      t.anchor_due = p.dispatched_at;
      t.anchored = true;
      t.resegment = false;
    }
    const double k = std::round((p.enqueued_at - t.anchor_enq) / t.period);
    const sim::Time due = t.anchor_due + t.period * static_cast<std::int64_t>(k);
    const sim::Time path = p.enqueued_at - due;
    const sim::Time dvcm = p.dispatched_at - p.enqueued_at;
    const sim::Time net = at - p.dispatched_at;
    const sim::Time late = at - due;
    if ((path + dvcm + net).raw_ns() != late.raw_ns()) ++tiling_errors_;
    ++delivered_;
    if (late <= t.period && at <= cutoff_) ++t.on_time;
    late_ms_.push_back(late.to_ms());
    late_group_.push_back(t.group);
    if (spans_ != nullptr) {
      spans_->push_back({static_cast<std::uint32_t>(id), due, p.enqueued_at,
                         p.dispatched_at, at});
    }
  }

  std::vector<FrameSpan>* spans_;
  net::UdpEndpoint rx_;
  std::vector<Track> streams_;
  std::vector<double> late_ms_;
  std::vector<int> late_group_;
  sim::Time cutoff_ = sim::Time::never();
  std::uint64_t delivered_ = 0;
  std::uint64_t stray_ = 0;
  std::uint64_t tiling_errors_ = 0;
};

/// One open-loop RTSP viewer: SETUP at its arrival time, PLAY, optionally a
/// PAUSE/PLAY pair, TEARDOWN after its media, FIN. A vanishing viewer stops
/// talking after PLAY; a slow starter dribbles its SETUP across several TCP
/// segments. Every request it sends is kept when `requests` is non-null (the
/// traced run replays them through the RTSP parser on the host clock).
///
/// The lifecycle follows session::RtspChurnClient, which cannot be used here:
/// it points its media at an apps::MpegClient, whose receive path keeps only
/// running averages, while the benchmark needs every frame's timestamps in
/// the ledger and the time each SETUP's last byte left.
class Viewer {
 public:
  enum class Kind { kPolite, kSlowStart, kPauseResume, kVanish };

  struct Config {
    Kind kind = Kind::kPolite;
    sim::Time arrival;
    std::string uri = "rtsp://ni/stream";
    std::uint64_t frames = 300;
    sim::Time period = sim::Time::ms(33);
    std::uint32_t frame_bytes = 1000;
    dwcs::WindowConstraint tolerance{1, 4};
    sim::Time pause_after = sim::Time::sec(3);
    sim::Time pause_for = sim::Time::sec(1);
    int group = 0;
    int step = 0;  // arrival-rate step (storm staircase)
  };

  struct Outcome {
    sim::Time setup_sent, setup_answered = sim::Time::never();
    sim::Time play_ok = sim::Time::never();
    sim::Time paused_total;
    sim::Time torn_down = sim::Time::never();  // TEARDOWN answered
    int status = 0;       // SETUP
    int play_status = 0;  // first PLAY
    dwcs::StreamId stream = dwcs::kInvalidStream;
    std::uint64_t cseq_errors = 0;
    bool completed = false;
  };

  Viewer(sim::Engine& engine, hw::EthernetSwitch& ether, int control_port,
         FrameLedger& ledger, int rtcp_port, Config config,
         std::vector<std::string>* requests)
      : engine_{engine}, config_{std::move(config)}, ledger_{ledger},
        rtcp_port_{rtcp_port}, requests_{requests}, responses_{engine},
        resp_rx_{engine, ether, net::kHostStackCost,
                 net::TcpLiteReceiver::DeliverFrom{
                     [this](const net::Packet& p, int, sim::Time) {
                       on_bytes(p);
                     }}},
        ctl_tx_{engine, ether, net::kHostStackCost, control_port,
                net::TcpLiteSenderParams{.window = 8,
                                         .rto = sim::Time::ms(20),
                                         .max_retx_rounds = 8}} {}

  Viewer(const Viewer&) = delete;
  Viewer& operator=(const Viewer&) = delete;

  void start() { run().detach(); }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Outcome& outcome() const { return out_; }

 private:
  void on_bytes(const net::Packet& p) {
    if (const auto* chunk = static_cast<const std::string*>(p.body.get())) {
      buf_.append(*chunk);
    }
    while (auto msg = buf_.next()) {
      if (auto r = session::parse_response(*msg)) responses_.send(*r);
    }
  }

  void send_text(std::string text) {
    auto body = std::make_shared<std::string>(std::move(text));
    net::Packet pkt;
    pkt.bytes = static_cast<std::uint32_t>(body->size());
    pkt.body = std::move(body);
    ctl_tx_.send(pkt);
  }

  /// Send `req` and await its response. `sent` (optional) receives the
  /// instant the last byte of the request left the client.
  sim::Coro transact(session::RtspRequest req, session::RtspResponse* out,
                     sim::Time* sent = nullptr) {
    req.reply_port = resp_rx_.port();
    req.cseq = ++cseq_;
    std::string text = session::format_request(req);
    if (requests_ != nullptr) requests_->push_back(text);
    if (config_.kind == Kind::kSlowStart &&
        req.method == session::Method::kSetup) {
      constexpr std::size_t kChunks = 4;
      const std::size_t step = (text.size() + kChunks - 1) / kChunks;
      for (std::size_t pos = 0; pos < text.size(); pos += step) {
        if (pos != 0) co_await sim::Delay{engine_, sim::Time::ms(40)};
        send_text(text.substr(pos, step));
      }
    } else {
      send_text(std::move(text));
    }
    if (sent != nullptr) *sent = engine_.now();
    session::RtspResponse r = co_await responses_.receive();
    if (r.cseq != req.cseq) ++out_.cseq_errors;
    *out = r;
  }

  sim::Coro run() {
    co_await sim::Delay{engine_, config_.arrival};
    session::RtspRequest setup;
    setup.method = session::Method::kSetup;
    setup.uri = config_.uri;
    setup.rtp_port = ledger_.port();
    setup.rtcp_port = rtcp_port_;
    setup.tolerance = config_.tolerance;
    setup.period = config_.period;
    setup.frame_bytes = config_.frame_bytes;
    setup.frames = config_.frames;
    session::RtspResponse r;
    co_await transact(setup, &r, &out_.setup_sent);
    out_.setup_answered = engine_.now();
    out_.status = r.status;
    if (r.status != 200) {
      ctl_tx_.close();
      out_.completed = true;
      co_return;
    }
    const std::uint64_t sid = r.session_id;
    out_.stream = r.stream;
    ledger_.track(r.stream, config_.period, config_.group);

    session::RtspRequest play;
    play.method = session::Method::kPlay;
    play.session_id = sid;
    co_await transact(play, &r);
    out_.play_ok = engine_.now();
    out_.play_status = r.status;
    if (r.status != 200) {
      // 454: the server reaped the session while this PLAY waited in its
      // control backlog. The viewer was admitted and gets no media; its
      // frames stay due and count as misses.
      ctl_tx_.close();
      out_.completed = true;
      co_return;
    }
    if (config_.kind == Kind::kVanish) {
      out_.completed = true;
      co_return;
    }
    if (config_.kind == Kind::kPauseResume) {
      co_await sim::Delay{engine_, config_.pause_after};
      session::RtspRequest pause;
      pause.method = session::Method::kPause;
      pause.session_id = sid;
      const sim::Time paused_at = engine_.now();
      co_await transact(pause, &r);
      co_await sim::Delay{engine_, config_.pause_for};
      session::RtspRequest resume;
      resume.method = session::Method::kPlay;
      resume.session_id = sid;
      ledger_.new_segment_after(out_.stream, engine_.now());
      co_await transact(resume, &r);
      out_.paused_total = engine_.now() - paused_at;
    }
    co_await sim::Delay{engine_,
                        config_.period *
                                static_cast<std::int64_t>(config_.frames) +
                            sim::Time::ms(500)};
    session::RtspRequest teardown;
    teardown.method = session::Method::kTeardown;
    teardown.session_id = sid;
    co_await transact(teardown, &r);
    out_.torn_down = engine_.now();
    ctl_tx_.close();
    out_.completed = true;
  }

  sim::Engine& engine_;
  Config config_;
  FrameLedger& ledger_;
  int rtcp_port_;
  std::vector<std::string>* requests_;
  session::MessageBuffer buf_;
  sim::Mailbox<session::RtspResponse> responses_;
  net::TcpLiteReceiver resp_rx_;
  net::TcpLiteSender ctl_tx_;
  Outcome out_;
  std::uint64_t cseq_ = 0;
};

}  // namespace e2e
