// Trace exporters.
//
// write_chrome_trace emits the Chrome trace-event JSON format ("traceEvents"
// array, ts/dur in microseconds) that Perfetto and chrome://tracing load
// directly: one track (tid) per peer, piece transfers as complete ("X")
// duration slices on the uploader's track, everything else as instant ("i")
// events. write_event_csv emits the raw stream as a flat CSV timeseries,
// and read_event_csv parses that CSV back (offline verification by
// tchain-verify).
//
// Both writers are deterministic: output is a pure function of the event
// vector, events are written in stream order (non-decreasing timestamps),
// and no locale-dependent formatting is used.
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "src/obs/trace.h"

namespace tc::obs {

void write_chrome_trace(std::ostream& os, const std::vector<TraceEvent>& events);

void write_event_csv(std::ostream& os, const std::vector<TraceEvent>& events);

// Parses the CSV write_event_csv writes (header required) into events in
// file order. Empty a/b/c map to net::kNoPeer, empty piece to
// net::kNoPiece. Throws std::runtime_error naming the offending line on
// malformed input (unknown kind, bad field count, non-numeric field).
//
// The CSV only holds what survived the ring, so callers must pair the
// stream with the producer's drop count ("events.dropped" in the record
// extras / Trace::snapshot) to keep the checker's soundness contract.
std::vector<TraceEvent> read_event_csv(std::istream& in);

}  // namespace tc::obs
