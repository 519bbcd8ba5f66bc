// Exporter output shape: the Chrome trace must be structurally valid JSON
// with per-peer tracks, paired piece flows as duration slices, and
// non-decreasing timestamps; the CSV must be one row per event, and
// read_event_csv must round-trip it exactly and reject malformed input with
// a line-numbered error.
#include "src/obs/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tc::obs {
namespace {

// Minimal structural JSON check: balanced {} / [] outside string literals,
// nothing after the top-level value closes.
bool structurally_valid_json(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false, closed = false;
  for (char c : s) {
    if (closed && !std::isspace(static_cast<unsigned char>(c))) return false;
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        if (depth == 0) closed = true;
        break;
      default: break;
    }
  }
  return depth == 0 && closed && !in_string;
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> ev;
  // A completed piece flow 3 -> 5 (flow ref 41)...
  ev.push_back({.t = 1.0, .kind = EventKind::kPieceSent, .piece = 9, .a = 3,
                .b = 5, .ref = 41});
  // ...an instant in between...
  ev.push_back({.t = 1.5, .kind = EventKind::kChainStart, .aux = 1, .a = 3,
                .chain = 8});
  ev.push_back({.t = 2.0, .kind = EventKind::kPieceDelivered, .piece = 9,
                .a = 3, .b = 5, .ref = 41});
  // ...an unmatched send (receiver vanished; no end event in the stream)...
  ev.push_back({.t = 3.0, .kind = EventKind::kPieceSent, .piece = 2, .a = 5,
                .b = 6, .ref = 42});
  // ...and a chain break carrying a cause string.
  ev.push_back({.t = 4.0, .kind = EventKind::kChainBreak,
                .aux = static_cast<std::uint8_t>(ChainBreakCause::kWatchdog),
                .chain = 8});
  return ev;
}

TEST(ChromeTrace, IsStructurallyValidJson) {
  std::ostringstream os;
  write_chrome_trace(os, sample_events());
  const std::string json = os.str();
  EXPECT_TRUE(structurally_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(ChromeTrace, EmptyStreamStillValid) {
  std::ostringstream os;
  write_chrome_trace(os, {});
  EXPECT_TRUE(structurally_valid_json(os.str())) << os.str();
}

TEST(ChromeTrace, NamesOneTrackPerPeer) {
  std::ostringstream os;
  write_chrome_trace(os, sample_events());
  const std::string json = os.str();
  // Peers 3 and 5 both appear as event subjects -> two thread_name records.
  EXPECT_EQ(count_occurrences(json, "\"name\":\"thread_name\""), 2u);
  EXPECT_NE(json.find("\"name\":\"peer 3\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"peer 5\""), std::string::npos);
}

TEST(ChromeTrace, PairedFlowBecomesDurationSliceUnpairedStaysInstant) {
  std::ostringstream os;
  write_chrome_trace(os, sample_events());
  const std::string json = os.str();
  // Exactly one complete slice (the matched flow), with a 1 s = 1e6 us dur;
  // its delivered end-event is folded in, not re-emitted.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 1u);
  EXPECT_NE(json.find("\"dur\":1000000.000000"), std::string::npos);
  EXPECT_EQ(json.find("piece-delivered"), std::string::npos);
  // The unmatched send and the chain events render as instants.
  EXPECT_GE(count_occurrences(json, "\"ph\":\"i\""), 3u);
  EXPECT_NE(json.find("\"cause\":\"watchdog\""), std::string::npos);
}

TEST(ChromeTrace, TimestampsAreNonDecreasing) {
  std::ostringstream os;
  write_chrome_trace(os, sample_events());
  const std::string json = os.str();
  double prev = -1.0;
  for (auto pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 5)) {
    const double ts = std::stod(json.substr(pos + 5));
    EXPECT_GE(ts, prev);
    prev = ts;
  }
  EXPECT_GE(prev, 0.0);  // at least one event was written
}

TEST(EventCsv, OneHeaderOneRowPerEvent) {
  const auto events = sample_events();
  std::ostringstream os;
  write_event_csv(os, events);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "t,kind,a,b,c,piece,ref,chain,aux");
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    EXPECT_EQ(count_occurrences(line, ","), 8u) << line;
  }
  EXPECT_EQ(rows, events.size());
}

TEST(EventCsv, SentinelFieldsAreEmptyCells) {
  std::vector<TraceEvent> ev;
  ev.push_back({.t = 2.5, .kind = EventKind::kCensusTick});
  std::ostringstream os;
  write_event_csv(os, ev);
  std::istringstream is(os.str());
  std::string header, row;
  std::getline(is, header);
  std::getline(is, row);
  EXPECT_EQ(row, "2.500000,census-tick,,,,,0,0,0");
}

TEST(Replay, RoundTripsEveryFieldAndSentinel) {
  std::vector<TraceEvent> events;
  {
    TraceEvent e;  // fully-populated triangle open
    e.t = 12.25;
    e.kind = EventKind::kTxOpen;
    e.a = 1;
    e.b = 2;
    e.c = 3;
    e.piece = 17;
    e.ref = 42;
    e.chain = 7;
    events.push_back(e);
  }
  {
    TraceEvent e;  // sentinel-heavy event: no peers, no piece
    e.t = 13.5;
    e.kind = EventKind::kCensusTick;
    events.push_back(e);
  }
  {
    TraceEvent e;  // aux payload (break cause)
    e.t = 14.0;
    e.kind = EventKind::kChainBreak;
    e.chain = 7;
    e.aux = 3;
    events.push_back(e);
  }

  std::stringstream io;
  obs::write_event_csv(io, events);
  const auto parsed = read_event_csv(io);

  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(parsed[i].t, events[i].t);
    EXPECT_EQ(parsed[i].kind, events[i].kind);
    EXPECT_EQ(parsed[i].a, events[i].a);
    EXPECT_EQ(parsed[i].b, events[i].b);
    EXPECT_EQ(parsed[i].c, events[i].c);
    EXPECT_EQ(parsed[i].piece, events[i].piece);
    EXPECT_EQ(parsed[i].ref, events[i].ref);
    EXPECT_EQ(parsed[i].chain, events[i].chain);
    EXPECT_EQ(parsed[i].aux, events[i].aux);
  }
}

TEST(Replay, RoundTripsEveryEventKindName) {
  std::vector<TraceEvent> events;
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    TraceEvent e;
    e.t = static_cast<double>(k);
    e.kind = static_cast<EventKind>(k);
    events.push_back(e);
  }
  std::stringstream io;
  obs::write_event_csv(io, events);
  const auto parsed = read_event_csv(io);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(parsed[k].kind, events[k].kind);
  }
}

TEST(Replay, RejectsMissingHeader) {
  std::stringstream in("1.0,tx-open,1,2,3,0,42,7,0\n");
  EXPECT_THROW(read_event_csv(in), std::runtime_error);
}

TEST(Replay, RejectsEmptyInput) {
  std::stringstream in("");
  EXPECT_THROW(read_event_csv(in), std::runtime_error);
}

TEST(Replay, RejectsUnknownKindWithLineNumber) {
  std::stringstream in("t,kind,a,b,c,piece,ref,chain,aux\n"
                       "1.0,not-a-kind,1,2,3,0,42,7,0\n");
  try {
    read_event_csv(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Replay, RejectsWrongFieldCount) {
  std::stringstream in("t,kind,a,b,c,piece,ref,chain,aux\n"
                       "1.0,tx-open,1,2,3\n");
  EXPECT_THROW(read_event_csv(in), std::runtime_error);
}

TEST(Replay, RejectsNonNumericField) {
  std::stringstream in("t,kind,a,b,c,piece,ref,chain,aux\n"
                       "1.0,tx-open,one,2,3,0,42,7,0\n");
  EXPECT_THROW(read_event_csv(in), std::runtime_error);
}

TEST(Replay, SkipsBlankLinesAndToleratesCrLf) {
  std::stringstream in("t,kind,a,b,c,piece,ref,chain,aux\r\n"
                       "\r\n"
                       "1.0,peer-join,4,,,,0,0,1\r\n");
  const auto parsed = read_event_csv(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, EventKind::kPeerJoin);
  EXPECT_EQ(parsed[0].a, 4u);
  EXPECT_EQ(parsed[0].b, net::kNoPeer);
  EXPECT_EQ(parsed[0].piece, net::kNoPiece);
  EXPECT_EQ(parsed[0].aux, 1u);
}

}  // namespace
}  // namespace tc::obs
