#include "src/core/policy.h"

namespace tc::core {

bool payee_needs(const bt::Bitfield& candidate_claimed,
                 PieceIndex piece_in_flight,
                 const bt::Bitfield* requestor_have) {
  if (piece_in_flight != net::kNoPiece &&
      !candidate_claimed.get(piece_in_flight)) {
    return true;
  }
  return requestor_have != nullptr &&
         candidate_claimed.interested_in(*requestor_have);
}

bool chain_head_needs(const bt::Bitfield& candidate_claimed,
                      const bt::Bitfield& donor_have) {
  return candidate_claimed.interested_in(donor_have);
}

std::size_t chain_budget(bool seeds, std::size_t have, std::size_t unmet,
                         std::size_t slots) {
  if (seeds) return slots;
  return have >= 1 && unmet == 0 ? 1 : 0;
}

std::optional<PieceIndex> select_bootstrap_piece(
    const bt::Bitfield& donor_have, const bt::Bitfield& requestor_claimed,
    const bt::Bitfield& payee_claimed, util::Rng& rng) {
  UniformPick<PieceIndex> pick(net::kNoPiece, rng);
  donor_have.for_each([&](PieceIndex p) {
    if (!requestor_claimed.get(p) && !payee_claimed.get(p)) pick.offer(p);
  });
  if (pick.chosen() == net::kNoPiece) return std::nullopt;
  return pick.chosen();
}

}  // namespace tc::core
