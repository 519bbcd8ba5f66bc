// What the peers of one localhost swarm share: the reactor, the torrent
// metadata (deterministic piece data + hashes), the swarm name and the
// trace every PeerNode emits into. No protocol state is shared: each
// peer's core::Node decides from its own view and namespaces its own tx
// and chain ids. One trace gives src/check a single totally-ordered event
// stream to verify online; a multi-host deployment would merge per-peer
// traces offline.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "src/core/node.h"
#include "src/obs/trace.h"
#include "src/rt/reactor.h"

namespace tc::rt {

class SwarmContext {
 public:
  SwarmContext(Reactor& r, obs::Trace* t, core::SwarmFileMeta m,
               std::string name)
      : reactor(r), trace(t), meta(std::move(m)), swarm_name(std::move(name)) {}

  Reactor& reactor;
  obs::Trace* trace;  // may be null (untraced run)
  core::SwarmFileMeta meta;
  std::string swarm_name;

  // Stamps e.t with reactor.now() and forwards to the trace (if any).
  // Several peers may each see a chain end; only the first kChainBreak per
  // chain is recorded. No peer reads this filter.
  void emit(obs::TraceEvent e) {
    if (trace == nullptr) return;
    if (e.kind == obs::EventKind::kChainBreak &&
        !broken_chains_.insert(e.chain).second) {
      return;
    }
    e.t = reactor.now();
    trace->emit(e);
  }

 private:
  std::set<std::uint64_t> broken_chains_;
};

}  // namespace tc::rt
