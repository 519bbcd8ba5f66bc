#include "src/rt/swarm_context.h"

#include <utility>

#include "src/util/rng.h"

namespace tc::rt {

SwarmFileMeta SwarmFileMeta::make(std::uint32_t piece_count,
                                  std::uint32_t piece_bytes,
                                  std::uint64_t seed) {
  SwarmFileMeta m;
  m.piece_count = piece_count;
  m.piece_bytes = piece_bytes;
  m.pieces.reserve(piece_count);
  m.hashes.reserve(piece_count);
  util::Rng rng(seed);
  for (std::uint32_t i = 0; i < piece_count; ++i) {
    util::Bytes piece(piece_bytes);
    for (std::size_t off = 0; off < piece.size(); off += 8) {
      const std::uint64_t word = rng.next_u64();
      for (std::size_t b = 0; b < 8 && off + b < piece.size(); ++b) {
        piece[off + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    m.hashes.push_back(crypto::sha256(piece));
    m.pieces.push_back(std::move(piece));
  }
  return m;
}

SwarmContext::SwarmContext(Reactor& r, obs::Trace* t, SwarmFileMeta m,
                           std::string name)
    : reactor(r),
      trace(t),
      meta(std::move(m)),
      swarm_name(std::move(name)) {}

void SwarmContext::emit(obs::TraceEvent e) {
  if (trace == nullptr) return;
  e.t = reactor.now();
  trace->emit(e);
}

std::uint64_t SwarmContext::start_chain(net::PeerId initiator,
                                        bool by_seeder) {
  const std::uint64_t id =
      chains.create(initiator, by_seeder, reactor.now());
  emit({.kind = obs::EventKind::kChainStart,
        .aux = by_seeder ? std::uint8_t{1} : std::uint8_t{0},
        .a = initiator,
        .chain = id});
  return id;
}

void SwarmContext::extend_chain(std::uint64_t chain, net::TxId tx) {
  chains.extend(chain);
  emit({.kind = obs::EventKind::kChainExtend, .ref = tx, .chain = chain});
}

void SwarmContext::break_chain(std::uint64_t chain,
                               obs::ChainBreakCause cause) {
  if (!chains.is_active(chain)) return;
  emit({.kind = obs::EventKind::kChainBreak,
        .aux = static_cast<std::uint8_t>(cause),
        .chain = chain});
  chains.terminate(chain, reactor.now());
}

}  // namespace tc::rt
