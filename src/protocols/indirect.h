// Indirect-reciprocity baselines from the paper's Table II.
//
// EigenTrust [13]: reputation-based unchoking. Peers accumulate local
// trust from satisfactory downloads; a global trust vector is computed by
// the EigenTrust power iteration over normalized local trust with a
// pre-trusted seeder, and peers unchoke the most-trusted interested
// neighbors, reserving ~10% of slots for zero-trust newcomers (the
// bootstrap allotment the paper notes is "the target of strategic
// free-riders"). Colluders mount the false-praise attack: they report
// maximal local trust for each other.
//
// Dandelion [14]: central-server credit. Every piece delivery is mediated
// by a trusted third party that moves one credit from the downloader to
// the uploader; newcomers receive a fixed initial credit (earned "outside
// the system" per the paper). Cheating is impossible, but whitewashing
// re-mints the initial credit, and the server is the scalability/trust
// cost the paper criticizes.
//
// Both are deliberately faithful-but-compact: the simulator computes the
// EigenTrust iteration and the credit bank centrally, which matches how
// these systems behave once converged.
#pragma once

#include "src/protocols/choking.h"

namespace tc::protocols {

class EigenTrustProtocol : public ChokingProtocol {
 public:
  std::string name() const override { return "EigenTrust"; }

  // Simulated seconds between global trust recomputations.
  static constexpr double kTrustPeriod = 10.0;
  // Power-iteration steps per recomputation.
  static constexpr int kPowerIterations = 12;

  void on_run_start() override;
  void on_peer_join(PeerId id) override;
  void on_peer_depart(PeerId id) override;
  void on_piece_complete(PeerId peer, PieceIndex piece, PeerId from) override;

  // Current global trust of a peer (0 for strangers). Exposed for tests.
  double trust(PeerId id) const;

 protected:
  void compute_unchokes(ChokeState& st,
                        std::vector<PeerId>& interested) override;

 private:
  void recompute_trust();
  void trust_loop();

  // sat_[i][j]: satisfactory interactions i observed with j (pieces
  // received). Colluders inject false praise in recompute_trust.
  std::vector<std::unordered_map<PeerId, double>> sat_;
  std::vector<double> global_trust_;
};

class DandelionProtocol : public BaselineProtocol {
 public:
  std::string name() const override { return "Dandelion"; }

  // Initial credit granted to every (apparent) newcomer — the whitewash
  // attack surface.
  static constexpr double kInitialCredit = 4.0;
  // Uploads one peer runs at once.
  static constexpr std::size_t kUploadSlots = 4;

  void on_peer_join(PeerId id) override;
  void on_peer_depart(PeerId id) override;

  // 0 for a peer not in the swarm.
  double credit(PeerId id) const;

 protected:
  void on_period(PeerId id) override;

 private:
  struct State {
    double credit = kInitialCredit;
    std::size_t active_uploads = 0;
  };
  void pump(PeerId id);

  std::vector<State> states_;
};

}  // namespace tc::protocols
