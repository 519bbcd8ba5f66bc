#include "src/obs/export.h"

#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace tc::obs {
namespace {

// The event CSV's header row, written and required as is.
constexpr const char* kCsvHeader = "t,kind,a,b,c,piece,ref,chain,aux";

// Microsecond timestamp for the Chrome trace format. Events are written in
// stream order, so ts is non-decreasing across the file.
double micros(util::SimTime t) { return t * 1e6; }

void write_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  os << buf;
}

// Common "args" payload: whichever optional fields the event carries.
void write_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  bool first = true;
  const auto field = [&](const char* name, std::uint64_t v) {
    if (!first) os << ',';
    first = false;
    os << '"' << name << "\":" << v;
  };
  if (e.piece != net::kNoPiece) field("piece", e.piece);
  if (e.b != net::kNoPeer) field("b", e.b);
  if (e.c != net::kNoPeer) field("c", e.c);
  if (e.ref != 0) field("ref", e.ref);
  if (e.chain != 0) field("chain", e.chain);
  if (e.kind == EventKind::kChainBreak) {
    if (!first) os << ',';
    first = false;
    os << "\"cause\":\"" << chain_break_cause_name(static_cast<ChainBreakCause>(e.aux))
       << '"';
  } else if (e.aux != 0) {
    field("aux", e.aux);
  }
  os << '}';
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("event csv: line " + std::to_string(line_no) +
                           ": " + why);
}

EventKind parse_kind(const std::string& name, std::size_t line_no) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_kind_name(kind)) return kind;
  }
  fail(line_no, "unknown event kind '" + name + "'");
}

std::uint64_t parse_u64(const std::string& field, std::size_t line_no) {
  if (field.empty()) fail(line_no, "empty numeric field");
  std::uint64_t v = 0;
  for (const char ch : field) {
    if (ch < '0' || ch > '9') fail(line_no, "non-numeric field '" + field + "'");
    v = v * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return v;
}

// Empty field = "no peer" / "no piece" sentinel (see write_event_csv).
std::uint32_t parse_id(const std::string& field, std::uint32_t sentinel,
                       std::size_t line_no) {
  if (field.empty()) return sentinel;
  const std::uint64_t v = parse_u64(field, line_no);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    fail(line_no, "id out of range '" + field + "'");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  // Pre-pass: match kPieceSent -> kPieceDelivered / kPieceAborted by flow ref
  // so transfers render as duration slices on the uploader's track.
  std::unordered_map<std::uint64_t, const TraceEvent*> flow_end;
  for (const TraceEvent& e : events) {
    if ((e.kind == EventKind::kPieceDelivered ||
         e.kind == EventKind::kPieceAborted) &&
        e.ref != 0 && !flow_end.count(e.ref)) {
      flow_end.emplace(e.ref, &e);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
    os << '\n';
  };

  // One track per peer: name the threads once, in peer-id order.
  std::map<net::PeerId, bool> peers;
  for (const TraceEvent& e : events) {
    if (e.a != net::kNoPeer) peers[e.a];
  }
  for (const auto& [pid, unused] : peers) {
    (void)unused;
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << pid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"peer " << pid << "\"}}";
  }

  for (const TraceEvent& e : events) {
    const net::PeerId track = e.a == net::kNoPeer ? 0 : e.a;
    if (e.kind == EventKind::kPieceSent) {
      // Complete ("X") slice if the end of this flow is in the stream;
      // otherwise fall through to an instant.
      const auto it = flow_end.find(e.ref);
      if (it != flow_end.end() && it->second->t >= e.t) {
        sep();
        os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << track << ",\"ts\":";
        write_double(os, micros(e.t));
        os << ",\"dur\":";
        write_double(os, micros(it->second->t - e.t));
        os << ",\"name\":\""
           << (it->second->kind == EventKind::kPieceAborted ? "piece (aborted)"
                                                            : "piece")
           << "\",\"cat\":\"piece\",";
        write_args(os, e);
        os << '}';
        continue;
      }
    }
    if (e.kind == EventKind::kPieceDelivered || e.kind == EventKind::kPieceAborted) {
      // Rendered as the end of the paired "X" slice above.
      if (e.ref != 0 && flow_end.count(e.ref)) continue;
    }
    sep();
    os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << track << ",\"ts\":";
    write_double(os, micros(e.t));
    os << ",\"name\":\"" << event_kind_name(e.kind) << "\",\"cat\":\"event\",";
    write_args(os, e);
    os << '}';
  }
  os << "\n]}\n";
}

void write_event_csv(std::ostream& os, const std::vector<TraceEvent>& events) {
  os << kCsvHeader << '\n';
  for (const TraceEvent& e : events) {
    write_double(os, e.t);
    os << ',' << event_kind_name(e.kind) << ',';
    if (e.a != net::kNoPeer) os << e.a;
    os << ',';
    if (e.b != net::kNoPeer) os << e.b;
    os << ',';
    if (e.c != net::kNoPeer) os << e.c;
    os << ',';
    if (e.piece != net::kNoPiece) os << e.piece;
    os << ',' << e.ref << ',' << e.chain << ',' << static_cast<unsigned>(e.aux)
       << '\n';
  }
}

std::vector<TraceEvent> read_event_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("event csv: empty input");
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kCsvHeader) {
    throw std::runtime_error(std::string("event csv: missing '") +
                             kCsvHeader + "' header");
  }

  std::vector<TraceEvent> events;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::array<std::string, 9> f;
    std::size_t n = 0;
    std::string cur;
    for (const char ch : line) {
      if (ch == ',') {
        if (n >= f.size()) fail(line_no, "too many fields");
        f[n++] = cur;
        cur.clear();
      } else if (ch != '\r') {
        cur += ch;
      }
    }
    if (n != f.size() - 1) fail(line_no, "expected 9 fields");
    f[n] = cur;

    TraceEvent e;
    try {
      e.t = std::stod(f[0]);
    } catch (const std::exception&) {
      fail(line_no, "bad timestamp '" + f[0] + "'");
    }
    e.kind = parse_kind(f[1], line_no);
    e.a = parse_id(f[2], net::kNoPeer, line_no);
    e.b = parse_id(f[3], net::kNoPeer, line_no);
    e.c = parse_id(f[4], net::kNoPeer, line_no);
    e.piece = parse_id(f[5], net::kNoPiece, line_no);
    e.ref = parse_u64(f[6], line_no);
    e.chain = parse_u64(f[7], line_no);
    const std::uint64_t aux = parse_u64(f[8], line_no);
    if (aux > 0xff) fail(line_no, "aux out of range '" + f[8] + "'");
    e.aux = static_cast<std::uint8_t>(aux);
    events.push_back(e);
  }
  return events;
}

}  // namespace tc::obs
