#include "src/obs/trace.h"

#include <algorithm>

namespace tc::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kPeerJoin: return "peer-join";
    case EventKind::kPeerFinish: return "peer-finish";
    case EventKind::kPeerDepart: return "peer-depart";
    case EventKind::kPeerCrash: return "peer-crash";
    case EventKind::kPeerWhitewash: return "peer-whitewash";
    case EventKind::kPieceSent: return "piece-sent";
    case EventKind::kPieceDelivered: return "piece-delivered";
    case EventKind::kPieceAborted: return "piece-aborted";
    case EventKind::kPieceGranted: return "piece-granted";
    case EventKind::kKeyEscrowed: return "key-escrowed";
    case EventKind::kKeyDelivered: return "key-delivered";
    case EventKind::kKeyLost: return "key-lost";
    case EventKind::kTxOpen: return "tx-open";
    case EventKind::kTxRetry: return "tx-retry";
    case EventKind::kTxTimeout: return "tx-timeout";
    case EventKind::kTxClose: return "tx-close";
    case EventKind::kChainStart: return "chain-start";
    case EventKind::kChainExtend: return "chain-extend";
    case EventKind::kChainBreak: return "chain-break";
    case EventKind::kChoke: return "choke";
    case EventKind::kUnchoke: return "unchoke";
    case EventKind::kFaultControlDrop: return "fault-control-drop";
    case EventKind::kFaultControlJitter: return "fault-control-jitter";
    case EventKind::kFaultOutageBegin: return "fault-outage-begin";
    case EventKind::kFaultOutageEnd: return "fault-outage-end";
    case EventKind::kCensusTick: return "census-tick";
    case EventKind::kCount_: break;
  }
  return "?";
}

const char* chain_break_cause_name(ChainBreakCause c) {
  switch (c) {
    case ChainBreakCause::kNone: return "none";
    case ChainBreakCause::kCompleted: return "completed";
    case ChainBreakCause::kNoPayee: return "no-payee";
    case ChainBreakCause::kFreeriderSink: return "freerider-sink";
    case ChainBreakCause::kDeparture: return "departure";
    case ChainBreakCause::kCrash: return "crash";
    case ChainBreakCause::kWatchdog: return "watchdog";
    case ChainBreakCause::kAborted: return "aborted";
  }
  return "?";
}

const char* retry_cause_name(RetryCause c) {
  switch (c) {
    case RetryCause::kWatchdog: return "watchdog";
    case RetryCause::kPayeeFinished: return "payee-finished";
    case RetryCause::kPayeeGone: return "payee-gone";
  }
  return "?";
}

EventRing::EventRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void EventRing::push(const TraceEvent& e) {
  ++recorded_;
  if (buf_.size() < capacity_) {
    buf_.push_back(e);
    return;
  }
  buf_[head_] = e;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> EventRing::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  // Once wrapped, head_ points at the oldest event.
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    out.push_back(buf_[(head_ + i) % buf_.size()]);
  }
  return out;
}

Trace::Trace(const TraceConfig& cfg)
    : mask_(cfg.kind_mask), ring_(cfg.ring_capacity) {}

std::vector<std::pair<std::string, double>> Trace::snapshot() const {
  auto out = registry_.snapshot();
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (kind_counts_[k] == 0) continue;
    out.emplace_back(
        std::string("events.") + event_kind_name(static_cast<EventKind>(k)),
        static_cast<double>(kind_counts_[k]));
  }
  out.emplace_back("events.recorded", static_cast<double>(ring_.recorded()));
  out.emplace_back("events.dropped", static_cast<double>(ring_.dropped()));
  return out;
}

}  // namespace tc::obs
