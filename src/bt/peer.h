// In-simulation peer state. Protocol-specific state (deficits, pending
// counters, chain membership, ...) lives in the protocol implementations,
// keyed by PeerId; this struct is only what every protocol shares.
#pragma once

#include <vector>

#include "src/bt/bitfield.h"
#include "src/net/peer_id.h"
#include "src/util/units.h"

namespace tc::bt {

using net::PeerId;
using util::SimTime;

struct Peer {
  PeerId id = net::kNoPeer;
  bool seeder = false;
  bool freerider = false;
  bool colluder = false;
  double upload_kbps = 0.0;

  Bitfield have;       // completed (decrypted) pieces — "F_A" in the paper
  Bitfield requested;  // in-flight or received-encrypted: not to be re-fetched
  // Shrinks only on an aborted upload, a whitewash re-key, or T-Chain's clears.

  std::vector<PeerId> neighbors;  // small (<= ~55): vector beats a set

  SimTime join_time = 0.0;
  bool active = true;

  bool is_neighbor(PeerId n) const {
    for (PeerId x : neighbors) {
      if (x == n) return true;
    }
    return false;
  }
};

}  // namespace tc::bt
