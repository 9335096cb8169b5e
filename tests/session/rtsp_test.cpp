// Tests for the RTSP message layer: format/parse round trips, malformed
// input rejection, session-id helpers, and MessageBuffer reassembly across
// arbitrary segment boundaries (what slow-start clients stress).
#include "session/rtsp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace nistream::session {
namespace {

TEST(RtspMessage, SetupRequestRoundTrips) {
  RtspRequest req;
  req.method = Method::kSetup;
  req.cseq = 7;
  req.reply_port = 12;
  req.rtp_port = 34;
  req.rtcp_port = 35;
  req.tolerance = dwcs::WindowConstraint{2, 5};
  req.period = sim::Time::us(33'000);
  req.frame_bytes = 1234;
  req.frames = 99;
  const auto parsed = parse_request(format_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kSetup);
  EXPECT_EQ(parsed->cseq, 7u);
  EXPECT_EQ(parsed->reply_port, 12);
  EXPECT_EQ(parsed->rtp_port, 34);
  EXPECT_EQ(parsed->rtcp_port, 35);
  EXPECT_EQ(parsed->tolerance, (dwcs::WindowConstraint{2, 5}));
  EXPECT_EQ(parsed->period, sim::Time::us(33'000));
  EXPECT_EQ(parsed->frame_bytes, 1234u);
  EXPECT_EQ(parsed->frames, 99u);
  EXPECT_EQ(parsed->session_id, 0u);
}

TEST(RtspMessage, PlayCarriesSessionId) {
  RtspRequest req;
  req.method = Method::kPlay;
  req.cseq = 2;
  req.session_id = make_session_id(3, 41);
  const auto parsed = parse_request(format_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kPlay);
  EXPECT_EQ(parsed->session_id, make_session_id(3, 41));
}

TEST(RtspMessage, ResponseRoundTrips) {
  RtspResponse resp;
  resp.status = 453;
  resp.cseq = 11;
  resp.session_id = make_session_id(1, 5);
  const auto parsed = parse_response(format_response(resp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 453);
  EXPECT_EQ(parsed->cseq, 11u);
  EXPECT_EQ(parsed->session_id, make_session_id(1, 5));
  EXPECT_FALSE(parsed->has_stream);
}

TEST(RtspMessage, ResponseCarriesStreamId) {
  RtspResponse resp;
  resp.status = 200;
  resp.cseq = 1;
  resp.session_id = make_session_id(1, 1);
  resp.stream = 42;
  resp.has_stream = true;
  const auto parsed = parse_response(format_response(resp));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_stream);
  EXPECT_EQ(parsed->stream, 42u);
}

TEST(RtspMessage, MalformedRequestsRejected) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("GARBAGE\r\n").has_value());
  EXPECT_FALSE(parse_request("OPTIONS * RTSP/1.0\r\nCSeq: 1\r\n").has_value());
  EXPECT_FALSE(parse_request("PLAY rtsp://x RTSP/1.0\r\n").has_value());  // no CSeq
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x RTSP/1.0\r\nCSeq: abc\r\n").has_value());
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x HTTP/1.1\r\nCSeq: 1\r\n").has_value());
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x RTSP/1.0\r\nno colon line\r\n").has_value());
  // Invalid window: x > y.
  EXPECT_FALSE(parse_request("SETUP rtsp://x RTSP/1.0\r\nCSeq: 1\r\n"
                             "X-Window: 5/2\r\n")
                   .has_value());
  // Zero period.
  EXPECT_FALSE(parse_request("SETUP rtsp://x RTSP/1.0\r\nCSeq: 1\r\n"
                             "X-Period-Us: 0\r\n")
                   .has_value());
}

TEST(RtspMessage, NumericHeadersRejectOutOfRangeValues) {
  // One row per numeric request header: the largest value its field holds
  // parses, anything larger is malformed (400), never wrapped or truncated.
  struct Row {
    const char* accepted;
    std::vector<const char*> rejected;
  };
  const Row rows[] = {
      {"CSeq: 18446744073709551615", {"CSeq: 18446744073709551616"}},
      // Ports are switch port indices held in an int (see kMaxPort).
      {"Reply-Port: 2147483647",
       {"Reply-Port: 2147483648", "Reply-Port: 4294975296"}},
      {"Transport: RTP/AVP;unicast;client_port=2147483646-2147483647",
       {"Transport: RTP/AVP;unicast;client_port=4294967297-4294967298",
        "Transport: RTP/AVP;unicast;client_port=5000-2147483648"}},
      {"X-Window: 9223372036854775807/9223372036854775807",
       {"X-Window: 1/9223372036854775808",
        "X-Window: 9223372036854775808/9223372036854775808"}},
      {"X-Period-Us: 9223372036854775",
       {"X-Period-Us: 9223372036854776",
        "X-Period-Us: 18446744073709551615"}},
      {"X-Frame-Bytes: 4294967295", {"X-Frame-Bytes: 4294967296"}},
      {"X-Frames: 18446744073709551615", {"X-Frames: 18446744073709551616"}},
  };
  const auto request = [](const char* header) {
    return std::string{"SETUP rtsp://x RTSP/1.0\r\n"} + header +
           "\r\nCSeq: 1\r\n";
  };
  for (const auto& row : rows) {
    EXPECT_TRUE(parse_request(request(row.accepted)).has_value())
        << row.accepted;
    for (const char* bad : row.rejected) {
      EXPECT_FALSE(parse_request(request(bad)).has_value()) << bad;
    }
  }

  // Accepted extremes land in their fields exactly.
  const auto setup = parse_request(
      "SETUP rtsp://x RTSP/1.0\r\nCSeq: 1\r\nReply-Port: 2147483647\r\n"
      "X-Period-Us: 9223372036854775\r\nX-Frame-Bytes: 4294967295\r\n");
  ASSERT_TRUE(setup.has_value());
  EXPECT_EQ(setup->reply_port, 2147483647);
  EXPECT_EQ(setup->period, sim::Time::ns(9'223'372'036'854'775'000));
  EXPECT_EQ(setup->frame_bytes, 4294967295u);

  // Responses too: a status has three digits, X-Stream fits a StreamId.
  EXPECT_TRUE(parse_response("RTSP/1.0 200 OK\r\nCSeq: 1\r\n"
                             "X-Stream: 4294967295\r\n")
                  .has_value());
  EXPECT_FALSE(parse_response("RTSP/1.0 200 OK\r\nCSeq: 1\r\n"
                              "X-Stream: 4294967296\r\n")
                   .has_value());
  EXPECT_FALSE(
      parse_response("RTSP/1.0 4294967496 OK\r\nCSeq: 1\r\n").has_value());

  // The 400 path's best-effort port lookup applies the same bound.
  EXPECT_EQ(find_reply_port("junk\r\nReply-Port: 2147483647\r\n"),
            std::optional<int>{2147483647});
  EXPECT_FALSE(
      find_reply_port("junk\r\nReply-Port: 2147483648\r\n").has_value());
  EXPECT_FALSE(
      find_reply_port("junk\r\nReply-Port: 4294975296\r\n").has_value());
}

TEST(RtspMessage, UnknownHeadersIgnored) {
  const auto parsed = parse_request(
      "PLAY rtsp://x RTSP/1.0\r\nCSeq: 9\r\nUser-Agent: test\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cseq, 9u);
}

TEST(RtspSessionId, IncarnationPrefixed) {
  const std::uint64_t id = make_session_id(7, 123);
  EXPECT_EQ(incarnation_of(id), 7u);
  EXPECT_EQ(id & 0xffffffffu, 123u);
  const auto parsed = parse_session_id(format_session_id(id));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
  EXPECT_FALSE(parse_session_id("").has_value());
  EXPECT_FALSE(parse_session_id("xyz").has_value());
  EXPECT_FALSE(parse_session_id("00000000000000001").has_value());  // 17 chars
}

TEST(RtspMessageBuffer, ReassemblesAcrossChunkBoundaries) {
  const std::string msg = format_request([] {
    RtspRequest r;
    r.method = Method::kSetup;
    r.cseq = 1;
    r.rtp_port = 5;
    r.rtcp_port = 6;
    return r;
  }());
  // Feed one byte at a time: exactly one message must pop out, at the end.
  MessageBuffer buf;
  int popped = 0;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    buf.append(msg.substr(i, 1));
    while (auto m = buf.next()) {
      ++popped;
      EXPECT_TRUE(parse_request(*m).has_value());
    }
  }
  EXPECT_EQ(popped, 1);
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(RtspMessageBuffer, SplitTerminatorAndBackToBackMessages) {
  RtspRequest r;
  r.method = Method::kPlay;
  r.cseq = 1;
  const std::string one = format_request(r);
  r.cseq = 2;
  const std::string two = format_request(r);
  MessageBuffer buf;
  // Split inside the \r\n\r\n terminator of message one, with message two's
  // head glued onto the same chunk.
  const std::string glued = one + two;
  buf.append(glued.substr(0, one.size() - 2));
  EXPECT_FALSE(buf.next().has_value());
  buf.append(glued.substr(one.size() - 2));
  const auto m1 = buf.next();
  const auto m2 = buf.next();
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(parse_request(*m1)->cseq, 1u);
  EXPECT_EQ(parse_request(*m2)->cseq, 2u);
  EXPECT_FALSE(buf.next().has_value());
}

/// Three requests back to back, and the text next() must return for each
/// (the blank line's \r\n is consumed, not returned).
struct ThreeMessages {
  std::string wire;
  std::vector<std::string> texts;
  ThreeMessages() {
    RtspRequest r;
    r.method = Method::kPlay;
    for (std::uint64_t cseq = 1; cseq <= 3; ++cseq) {
      r.cseq = cseq;
      const std::string one = format_request(r);
      wire += one;
      texts.push_back(one.substr(0, one.size() - 2));
    }
  }
};

std::vector<std::string> drain(MessageBuffer& buf) {
  std::vector<std::string> out;
  while (auto m = buf.next()) out.push_back(std::move(*m));
  return out;
}

TEST(RtspMessageBuffer, TerminatorSplitAtEveryChunkOffset) {
  // Three chunks cut at every pair of offsets: every terminator is split at
  // every position, including three ways ("\r" | "\n\r" | "\n"), and the
  // resumed search must still find each one exactly once.
  const ThreeMessages m;
  const std::size_t n = m.wire.size();
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = i; j <= n; ++j) {
      MessageBuffer buf;
      std::vector<std::string> got;
      for (const auto& chunk : {m.wire.substr(0, i), m.wire.substr(i, j - i),
                                m.wire.substr(j)}) {
        buf.append(chunk);
        for (auto& t : drain(buf)) got.push_back(std::move(t));
      }
      ASSERT_EQ(got, m.texts) << "cuts at " << i << " and " << j;
      ASSERT_EQ(buf.pending_bytes(), 0u);
    }
  }
}

TEST(RtspMessageBuffer, SeveralMessagesInOneChunk) {
  const ThreeMessages m;
  MessageBuffer buf;
  buf.append(m.wire + "PLAY rtsp://x RTSP/1.0\r\n");  // plus a partial fourth
  EXPECT_EQ(drain(buf), m.texts);
  EXPECT_EQ(buf.pending_bytes(), 24u);
  EXPECT_FALSE(buf.over_cap());
  buf.append("CSeq: 4\r\n\r\n");
  const auto fourth = buf.next();
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(parse_request(*fourth)->cseq, 4u);
}

TEST(RtspMessageBuffer, CapCountsOnlyBytesWithoutATerminator) {
  MessageBuffer buf;
  buf.append(std::string(MessageBuffer::kMaxPendingBytes, 'a'));
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_FALSE(buf.over_cap());
  buf.append("a");
  EXPECT_TRUE(buf.over_cap());
}

}  // namespace
}  // namespace nistream::session
