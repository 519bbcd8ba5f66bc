#include "src/obs/chain_view.h"

namespace tc::obs {

ChainView ChainView::reconstruct(const std::vector<TraceEvent>& events) {
  ChainView v;
  const auto find = [&v](std::uint64_t id) -> ChainRecord* {
    const auto it = v.index_.find(id);
    return it == v.index_.end() ? nullptr : &v.chains_[it->second];
  };

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kChainStart: {
        ChainRecord rec;
        rec.id = e.chain;
        rec.initiator = e.a;
        rec.by_seeder = (e.aux & 1u) != 0;
        rec.created = e.t;
        v.index_[e.chain] = v.chains_.size();
        v.chains_.push_back(rec);
        ++v.active_;
        if (rec.by_seeder) {
          ++v.created_seeder_;
        } else {
          ++v.created_leecher_;
        }
        break;
      }
      case EventKind::kChainExtend: {
        if (ChainRecord* rec = find(e.chain)) {
          ++rec->length;
        } else {
          ++v.orphans_;
        }
        break;
      }
      case EventKind::kChainBreak: {
        ChainRecord* rec = find(e.chain);
        if (rec == nullptr) {
          ++v.orphans_;
          break;
        }
        if (rec->broken()) break;  // terminate is idempotent upstream too
        rec->terminated = e.t;
        rec->cause = static_cast<ChainBreakCause>(e.aux);
        if (v.active_ > 0) --v.active_;
        break;
      }
      case EventKind::kTxOpen: {
        if (e.c == net::kNoPeer) {
          ++v.terminal_txs_;
        } else if (e.c == e.a) {
          ++v.direct_txs_;
        } else {
          ++v.indirect_txs_;
        }
        break;
      }
      case EventKind::kCensusTick: {
        v.census_.push_back(CensusPoint{e.t, v.active_, v.created_seeder_,
                                        v.created_leecher_});
        break;
      }
      default:
        break;  // unrelated kinds are free to share the stream
    }
  }
  return v;
}

const ChainRecord* ChainView::chain(std::uint64_t id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &chains_[it->second];
}

double ChainView::opportunistic_fraction() const {
  const double total = static_cast<double>(total_created());
  return total > 0 ? static_cast<double>(created_leecher_) / total : 0.0;
}

std::map<std::uint32_t, std::size_t> ChainView::length_histogram() const {
  std::map<std::uint32_t, std::size_t> h;
  for (const ChainRecord& c : chains_) {
    if (c.broken()) ++h[c.length];
  }
  return h;
}

double ChainView::mean_terminated_length() const {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const ChainRecord& c : chains_) {
    if (!c.broken()) continue;
    sum += static_cast<double>(c.length);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace tc::obs
