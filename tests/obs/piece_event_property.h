// Trace properties both T-Chain drivers keep:
//   * every kPieceSent, kPieceDelivered and kPieceAborted names, in `ref`, a
//     transaction opened earlier in the trace with the same donor,
//     requestor and piece;
//   * every kTxClose closes, once, a transaction opened earlier, in a state
//     that fits the events seen for it before the close.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <unordered_map>
#include <unordered_set>
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

// kTxClose events checked, indexed by their TxState.
using TxCloseCounts = std::array<std::size_t, 5>;

// The close states and what each needs before it:
//   terminal  — a transaction opened with no payee, after its delivery;
//   completed — after its kKeyDelivered;
//   dead      — after a delivery, only once its kKeyLost was seen;
//   await-key — a requestor that joined flagged as a free-rider;
//   uploading — never.
inline TxCloseCounts expect_tx_closes_fit_their_events(
    const std::vector<TraceEvent>& events) {
  struct Tx {
    bool encrypted = false;
    net::PeerId requestor = net::kNoPeer;
    bool delivered = false;
    bool key_delivered = false;
    bool key_lost = false;
    bool closed = false;
  };
  std::unordered_map<std::uint64_t, Tx> txs;
  std::unordered_set<net::PeerId> freeriders;
  TxCloseCounts counts{};
  const auto find = [&](const TraceEvent& e) -> Tx* {
    const auto it = txs.find(e.ref);
    return it == txs.end() ? nullptr : &it->second;
  };
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kPeerJoin:
        if ((e.aux & kPeerFlagFreerider) != 0) freeriders.insert(e.a);
        break;
      case EventKind::kTxOpen:
        EXPECT_TRUE(txs.try_emplace(e.ref, Tx{.encrypted = e.c != net::kNoPeer,
                                              .requestor = e.b})
                        .second)
            << "tx " << e.ref << " opened twice";
        break;
      case EventKind::kPieceDelivered:
        if (Tx* tx = find(e)) tx->delivered = true;
        break;
      case EventKind::kKeyDelivered:
        if (Tx* tx = find(e)) tx->key_delivered = true;
        break;
      case EventKind::kKeyLost:
        if (Tx* tx = find(e)) tx->key_lost = true;
        break;
      case EventKind::kTxClose: {
        Tx* tx = find(e);
        if (tx == nullptr) {
          ADD_FAILURE() << "tx-close at t=" << e.t << " names tx " << e.ref
                        << ", which no earlier kTxOpen opened";
          break;
        }
        EXPECT_FALSE(tx->closed) << "tx " << e.ref << " closed twice";
        tx->closed = true;
        if (e.aux >= counts.size()) {
          ADD_FAILURE() << "tx " << e.ref << " closed in unknown state "
                        << int{e.aux};
          break;
        }
        ++counts[e.aux];
        switch (static_cast<TxState>(e.aux)) {
          case TxState::kUploading:
            ADD_FAILURE() << "tx " << e.ref << " closed uploading";
            break;
          case TxState::kTerminal:
            EXPECT_FALSE(tx->encrypted) << "encrypted tx " << e.ref
                                        << " closed terminal";
            EXPECT_TRUE(tx->delivered) << "tx " << e.ref
                                       << " closed terminal undelivered";
            break;
          case TxState::kCompleted:
            EXPECT_TRUE(tx->key_delivered)
                << "tx " << e.ref << " closed completed with no key-delivered";
            break;
          case TxState::kDead:
            EXPECT_TRUE(!tx->delivered || tx->key_lost)
                << "delivered tx " << e.ref << " closed dead with no key-lost";
            break;
          case TxState::kAwaitKey:
            EXPECT_EQ(freeriders.count(tx->requestor), 1u)
                << "tx " << e.ref << " closed await-key, but its requestor "
                << tx->requestor << " is no free-rider";
            break;
        }
        break;
      }
      default: break;
    }
  }
  return counts;
}

}  // namespace tc::obs
