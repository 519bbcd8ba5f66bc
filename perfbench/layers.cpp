#include "perfbench/layers.h"

#include <functional>
#include <vector>

#include "perfbench/common.h"
#include "src/bt/bitfield.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"
#include "src/net/message.h"
#include "src/sim/bandwidth.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

// Every probe draws its inputs from a fixed seed: the per-call costs are
// properties of the code, not of the workload's --seed.
constexpr std::uint64_t kProbeSeed = 0x5eed;

// Results of probed calls are folded in here so the optimiser keeps them.
volatile std::size_t g_sink = 0;

tc::util::Bytes random_bytes(std::size_t n) {
  tc::util::Rng rng(kProbeSeed);
  tc::util::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

}  // namespace

double queue_ns_per_event(std::size_t pending) {
  tc::sim::Simulator sim;
  tc::util::Rng rng(kProbeSeed);
  std::uint64_t fired = 0;
  auto noop = [&fired] { ++fired; };
  for (std::size_t i = 0; i < pending; ++i) {
    sim.schedule_at(rng.uniform(0.0, 100.0), noop);
  }
  // Steady state: every step is paired with one schedule, so the queue
  // stays at `pending` events.
  return ns_per_iter([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      sim.schedule_at(sim.now() + rng.uniform(0.0, 100.0), noop);
      sim.step();
    }
  });
}

double bw_ns_per_flow(std::size_t fanout) {
  constexpr std::size_t kUploaders = 64;
  constexpr double kPieceBytes = 64.0 * 1024;
  tc::sim::Simulator sim;
  tc::sim::BandwidthModel bw(sim);
  std::uint64_t completed = 0;
  // A finished flow is replaced at once, holding every uploader at
  // `fanout` concurrent flows.
  std::function<void(tc::sim::NodeId, tc::sim::NodeId)> restart =
      [&](tc::sim::NodeId src, tc::sim::NodeId dst) {
        bw.start_flow(src, dst, kPieceBytes, [&, src, dst](tc::sim::FlowId) {
          ++completed;
          restart(src, dst);
        });
      };
  for (tc::sim::NodeId u = 0; u < kUploaders; ++u) {
    bw.set_capacity(u, 50'000.0 + 1'000.0 * u);
    for (std::size_t f = 0; f < fanout; ++f) {
      restart(u, static_cast<tc::sim::NodeId>(kUploaders + f));
    }
  }
  return ns_per_iter([&](std::uint64_t iters) {
    const std::uint64_t target = completed + iters;
    while (completed < target && sim.step()) {
    }
  });
}

double lrf_ns(std::size_t piece_count) {
  tc::util::Rng rng(kProbeSeed);
  tc::bt::Bitfield mine(piece_count), theirs(piece_count);
  for (std::size_t i = 0; i < piece_count; ++i) {
    if (rng.bernoulli(0.5)) mine.set(static_cast<tc::bt::PieceIndex>(i));
    if (rng.bernoulli(0.5)) theirs.set(static_cast<tc::bt::PieceIndex>(i));
  }
  return ns_per_iter([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      g_sink = g_sink + mine.missing_from(theirs).size();
    }
  });
}

double codec_ns_per_byte(std::size_t piece_bytes) {
  tc::net::EncryptedPieceMsg msg;
  msg.tx = 42;
  msg.chain = 7;
  msg.donor = 1;
  msg.requestor = 2;
  msg.payee = 3;
  msg.piece = 5;
  msg.ciphertext = random_bytes(piece_bytes);
  const double ns = ns_per_iter([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      const tc::util::Bytes wire = tc::net::encode_message(msg);
      const tc::net::Message back = tc::net::decode_message(wire);
      g_sink = g_sink +
               std::get<tc::net::EncryptedPieceMsg>(back).ciphertext.size();
    }
  });
  return ns / static_cast<double>(piece_bytes);
}

double chacha20_ns_per_byte(std::size_t piece_bytes) {
  const tc::util::Bytes data = random_bytes(piece_bytes);
  tc::crypto::ChaChaKey key{};
  tc::crypto::ChaChaNonce nonce{};
  key[0] = 1;
  const double ns = ns_per_iter([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      g_sink = g_sink + tc::crypto::chacha20_xor(key, nonce, 0, data)[0];
    }
  });
  return ns / static_cast<double>(piece_bytes);
}

double sha256_ns_per_byte(std::size_t piece_bytes) {
  const tc::util::Bytes data = random_bytes(piece_bytes);
  const double ns = ns_per_iter([&](std::uint64_t iters) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      g_sink = g_sink + tc::crypto::sha256(data)[0];
    }
  });
  return ns / static_cast<double>(piece_bytes);
}

template <typename Fn>
void TimingProtocol::timed(Fn&& fn) {
  ++calls_;
  if (depth_++ > 0) {
    fn();
    --depth_;
    return;
  }
  const auto t0 = Clock::now();
  fn();
  seconds_ += seconds_since(t0);
  --depth_;
}

void TimingProtocol::attach(tc::bt::Swarm& swarm) {
  Protocol::attach(swarm);
  inner_.attach(swarm);
}
void TimingProtocol::on_run_start() {
  timed([&] { inner_.on_run_start(); });
}
void TimingProtocol::on_peer_join(tc::bt::PeerId id) {
  timed([&] { inner_.on_peer_join(id); });
}
void TimingProtocol::on_peer_depart(tc::bt::PeerId id) {
  timed([&] { inner_.on_peer_depart(id); });
}
void TimingProtocol::on_peer_crash(tc::bt::PeerId id) {
  timed([&] { inner_.on_peer_crash(id); });
}
void TimingProtocol::on_peer_rekeyed(tc::bt::PeerId old_id,
                                     tc::bt::PeerId fresh) {
  timed([&] { inner_.on_peer_rekeyed(old_id, fresh); });
}
void TimingProtocol::on_neighbor_added(tc::bt::PeerId a, tc::bt::PeerId b) {
  timed([&] { inner_.on_neighbor_added(a, b); });
}
void TimingProtocol::on_neighbor_removed(tc::bt::PeerId a, tc::bt::PeerId b) {
  timed([&] { inner_.on_neighbor_removed(a, b); });
}
void TimingProtocol::on_piece_complete(tc::bt::PeerId peer,
                                       tc::bt::PieceIndex piece,
                                       tc::bt::PeerId from) {
  timed([&] { inner_.on_piece_complete(peer, piece, from); });
}

}  // namespace perfbench
