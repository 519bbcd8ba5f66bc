// Shared single-process state for a localhost swarm: the torrent metadata
// (deterministic piece data + hashes), the chain registry, a global
// transaction-id allocator, and the trace every PeerNode emits into. In a
// real multi-host deployment each of these has a distributed equivalent (a
// .torrent file, per-peer tx namespaces, per-peer traces merged offline);
// keeping them shared here gives src/check a single totally-ordered event
// stream to verify online.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/chain_registry.h"
#include "src/crypto/sha256.h"
#include "src/net/message.h"
#include "src/obs/trace.h"
#include "src/rt/reactor.h"
#include "src/util/bytes.h"

namespace tc::rt {

// The "file" being swarmed: deterministic pseudo-random pieces plus their
// SHA-256 hashes (the .torrent piece table).
struct SwarmFileMeta {
  std::uint32_t piece_count = 0;
  std::uint32_t piece_bytes = 0;
  std::vector<util::Bytes> pieces;
  std::vector<crypto::Digest256> hashes;

  static SwarmFileMeta make(std::uint32_t piece_count,
                            std::uint32_t piece_bytes, std::uint64_t seed);
};

class SwarmContext {
 public:
  SwarmContext(Reactor& reactor, obs::Trace* trace, SwarmFileMeta meta,
               std::string swarm_name);

  Reactor& reactor;
  obs::Trace* trace;  // may be null (untraced run)
  SwarmFileMeta meta;
  std::string swarm_name;
  core::ChainRegistry chains;

  net::TxId alloc_tx() { return next_tx_++; }

  // Stamps e.t with reactor.now() and forwards to the trace (if any).
  void emit(obs::TraceEvent e);

  // Chain registry + trace in lockstep.
  std::uint64_t start_chain(net::PeerId initiator, bool by_seeder);
  void extend_chain(std::uint64_t chain, net::TxId tx);
  // Idempotent: a chain already terminated (both ends of a transaction may
  // observe the terminal condition) emits nothing the second time.
  void break_chain(std::uint64_t chain, obs::ChainBreakCause cause);

 private:
  net::TxId next_tx_ = 1;
};

}  // namespace tc::rt
