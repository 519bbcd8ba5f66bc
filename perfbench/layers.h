// Per-layer probes, measured from outside the library: standalone per-call
// costs of public entry points at a workload's sizes, and a timing wrapper
// around the bt::Protocol a swarm calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/bt/protocol.h"

namespace perfbench {

// sim::Simulator schedule_at + step, on a queue held at `pending` events.
double queue_ns_per_event(std::size_t pending);
// sim::BandwidthModel start_flow -> completion with `fanout` concurrent
// flows per uploader.
double bw_ns_per_flow(std::size_t fanout);
// bt::Bitfield::missing_from between two half-full bitfields.
double lrf_ns(std::size_t piece_count);
// net encode_message + decode_message of an EncryptedPieceMsg.
double codec_ns_per_byte(std::size_t piece_bytes);
double chacha20_ns_per_byte(std::size_t piece_bytes);
double sha256_ns_per_byte(std::size_t piece_bytes);

// Forwards every Protocol callback to `inner` and accumulates inclusive
// host time of the outermost callback (calls the protocol makes back into
// the swarm, and callbacks nested in those, count once). Timer and transfer
// callbacks the protocol schedules itself bypass the interface, so the
// total is a lower bound on protocol time.
class TimingProtocol : public tc::bt::Protocol {
 public:
  explicit TimingProtocol(tc::bt::Protocol& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  tc::util::ByteCount default_piece_bytes() const override {
    return inner_.default_piece_bytes();
  }
  void attach(tc::bt::Swarm& swarm) override;
  void on_run_start() override;
  void on_peer_join(tc::bt::PeerId id) override;
  void on_peer_depart(tc::bt::PeerId id) override;
  void on_peer_crash(tc::bt::PeerId id) override;
  void on_peer_rekeyed(tc::bt::PeerId old_id, tc::bt::PeerId fresh) override;
  void on_neighbor_added(tc::bt::PeerId a, tc::bt::PeerId b) override;
  void on_neighbor_removed(tc::bt::PeerId a, tc::bt::PeerId b) override;
  void on_piece_complete(tc::bt::PeerId peer, tc::bt::PieceIndex piece,
                         tc::bt::PeerId from) override;

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  template <typename Fn>
  void timed(Fn&& fn);

  tc::bt::Protocol& inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
  int depth_ = 0;
};

}  // namespace perfbench
