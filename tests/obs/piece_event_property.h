// The piece-event property both T-Chain drivers keep: every kPieceSent,
// kPieceDelivered and kPieceAborted names, in `ref`, a transaction opened
// earlier in the trace with the same donor, requestor and piece.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>
#include <vector>

#include "src/obs/trace.h"

namespace tc::obs {

// Piece events checked per kind: sent, delivered, aborted.
using PieceEventCounts = std::array<std::size_t, 3>;

inline PieceEventCounts expect_piece_events_name_their_tx(
    const std::vector<TraceEvent>& events) {
  struct Opened {
    net::PeerId donor;
    net::PeerId requestor;
    net::PieceIndex piece;
  };
  std::unordered_map<std::uint64_t, Opened> opened;
  PieceEventCounts counts{};
  for (const TraceEvent& e : events) {
    std::size_t slot = 0;
    switch (e.kind) {
      case EventKind::kTxOpen: opened[e.ref] = {e.a, e.b, e.piece}; continue;
      case EventKind::kPieceSent: slot = 0; break;
      case EventKind::kPieceDelivered: slot = 1; break;
      case EventKind::kPieceAborted: slot = 2; break;
      default: continue;
    }
    ++counts[slot];
    const auto it = opened.find(e.ref);
    if (it == opened.end()) {
      ADD_FAILURE() << "piece event at t=" << e.t << " names tx " << e.ref
                    << ", which no earlier kTxOpen opened";
      continue;
    }
    EXPECT_EQ(it->second.donor, e.a) << "tx " << e.ref;
    EXPECT_EQ(it->second.requestor, e.b) << "tx " << e.ref;
    EXPECT_EQ(it->second.piece, e.piece) << "tx " << e.ref;
  }
  return counts;
}

}  // namespace tc::obs
