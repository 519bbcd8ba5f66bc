// §III-C overhead: google-benchmark microbenchmarks for the cryptographic
// machinery T-Chain adds to BitTorrent. The paper (citing Dandelion [14])
// budgets 0.715 ms to encrypt a 128 KB piece and concludes <1.2% total
// encryption overhead and ~0.02% storage overhead for a 1 GB file; the
// REPORT lines printed at the end restate those ratios with this machine's
// measured numbers, and name the ChaCha20 kernel piece_xor ran on.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "src/crypto/cipher.h"
#include "src/crypto/hmac.h"
#include "src/crypto/kernels.h"
#include "src/crypto/sha256.h"
#include "src/net/message.h"

namespace {

using namespace tc;

util::Bytes make_piece(std::size_t len) {
  util::Bytes b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  return b;
}

void BM_ChaCha20EncryptPiece(benchmark::State& state) {
  const auto piece = make_piece(static_cast<std::size_t>(state.range(0)));
  crypto::KeySource keys(1);
  const auto key = keys.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::piece_xor(key, piece));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20EncryptPiece)->Arg(64 << 10)->Arg(128 << 10)->Arg(256 << 10);

// One ChaCha20 kernel on its own, in place (the piece_xor rows above also
// copy the piece).
void BM_ChaCha20Kernel(benchmark::State& state,
                       crypto::detail::ChaCha20Xor kernel) {
  auto data = make_piece(static_cast<std::size_t>(state.range(0)));
  const crypto::ChaChaKey key{};
  const crypto::ChaChaNonce nonce{};
  for (auto _ : state) {
    kernel(key, nonce, 1, data.data(), data.size());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// A 256 KiB row for each kernel this CPU runs.
const bool kernel_rows = [] {
  const std::pair<const char*, crypto::detail::ChaCha20Xor> kernels[] = {
      {"BM_ChaCha20Kernel/4-lane", &crypto::detail::chacha20_xor_4lane},
      {"BM_ChaCha20Kernel/avx2", crypto::detail::chacha20_xor_avx2()},
      {"BM_ChaCha20Kernel/avx512", crypto::detail::chacha20_xor_avx512()}};
  for (const auto& [name, kernel] : kernels) {
    if (kernel != nullptr) {
      benchmark::RegisterBenchmark(name, BM_ChaCha20Kernel, kernel)
          ->Arg(256 << 10);
    }
  }
  return true;
}();

void BM_Sha256PieceHash(benchmark::State& state) {
  const auto piece = make_piece(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(piece));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256PieceHash)->Arg(64 << 10)->Arg(128 << 10);

void BM_ReceiptMac(benchmark::State& state) {
  const util::Bytes key(32, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::receipt_mac(key, 123, 1, 2, 3));
  }
}
BENCHMARK(BM_ReceiptMac);

void BM_KeyGeneration(benchmark::State& state) {
  crypto::KeySource keys(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.next());
  }
}
BENCHMARK(BM_KeyGeneration);

void BM_EncryptedPieceCodec(benchmark::State& state) {
  net::EncryptedPieceMsg m;
  m.tx = 1;
  m.chain = 2;
  m.donor = 3;
  m.requestor = 4;
  m.payee = 5;
  m.piece = 6;
  m.ciphertext = make_piece(64 << 10);
  const net::Message msg{m};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_message(net::encode_message(msg)));
  }
}
BENCHMARK(BM_EncryptedPieceCodec);

// Printed after the benchmark table: the §III-C ratios with our numbers.
struct OverheadReport {
  ~OverheadReport() {
    const std::size_t piece = 128 << 10;
    const auto data = make_piece(piece);
    crypto::KeySource keys(1);
    const auto key = keys.next();
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int reps = 200;
    for (int i = 0; i < reps; ++i)
      benchmark::DoNotOptimize(crypto::piece_xor(key, data));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      reps;
    // 1 GiB file, every piece encrypted once + decrypted once; transfer at
    // 8 Mbps (paper's comparison point).
    const double pieces_per_gib = (1024.0 * 1024 * 1024) / piece;
    const double crypto_seconds = 2.0 * pieces_per_gib * ms / 1000.0;
    const double transfer_seconds = (1024.0 * 8.0) / 8.0;  // 1 GiB at 8 Mbps
    std::printf(
        "\nREPORT (paper §III-C): encrypt 128 KiB piece: %.3f ms on the %s "
        "ChaCha20 kernel (paper cites 0.715 ms)\n"
        "REPORT: 1 GiB encrypt+decrypt: %.1f s vs %.0f s transfer at 8 Mbps "
        "-> %.2f%% overhead (paper: <1.2%%)\n"
        "REPORT: per-piece key+nonce storage: 44 B -> %.4f%% of a 1 GiB file "
        "with 128 KiB pieces (paper: ~0.02%%)\n",
        ms, crypto::detail::chacha20_kernel_name(), crypto_seconds,
        transfer_seconds, 100.0 * crypto_seconds / transfer_seconds,
        100.0 * (44.0 * pieces_per_gib) / (1024.0 * 1024 * 1024));
  }
} report_on_exit;

}  // namespace

BENCHMARK_MAIN();
