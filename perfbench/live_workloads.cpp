// Live workloads: rt::run_local_swarm over loopback TCP. Each swarm is one
// single-threaded reactor on a thread of its own; a workload keeps a fixed
// number of swarms in flight, and each thread starts another swarm while
// the next one still fits in the time budget. Every swarm checks itself
// online.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/layers.h"
#include "src/rt/swarm.h"

namespace perfbench {

namespace {

struct LiveWorkload {
  std::size_t peers = 0;
  std::uint32_t pieces = 0;
  std::uint32_t piece_bytes = 0;
  std::size_t concurrency = 1;  // swarms in flight at once
};

LiveWorkload live_workload(const std::string& name, bool smoke) {
  LiveWorkload w;
  if (name == "live-small") {
    // The tchain-swarmd default, one swarm at a time as tchain-swarmd runs
    // it: timer- and protocol-bound.
    w.peers = smoke ? 4 : 16;
    w.pieces = smoke ? 8 : 32;
    w.piece_bytes = (smoke ? 4 : 16) * 1024;
  } else if (name == "live-bulk") {
    // Large pieces: ChaCha20, SHA-256, the codec and copies dominate. One
    // swarm's completion time swings by a quarter from swarm to swarm, so
    // three run side by side to give the mean more samples.
    w.peers = smoke ? 4 : 8;
    w.pieces = smoke ? 8 : 32;
    w.piece_bytes = (smoke ? 64 : 256) * 1024;
    w.concurrency = smoke ? 1 : 3;
  } else {
    throw std::invalid_argument("unknown live workload " + name);
  }
  return w;
}

struct SwarmSample {
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double setup_s = 0.0;        // reactor time of the last peer-join
  double first_piece_s = 0.0;  // reactor time of the first piece-sent
  double done_s = 0.0;         // reactor time the last leecher completed
  std::vector<double> finish_s;
  double events = 0.0;
  double check_events = 0.0;
  double gratis_breaks = 0.0;
  // "events.<kind>" counts from the trace registry (never lost to ring
  // wraparound, unlike the event snapshot).
  double sent = 0, granted = 0, tx_open = 0, tx_retry = 0, tx_timeout = 0,
         key_delivered = 0, key_escrowed = 0, chain_start = 0;
};

SwarmSample run_swarm(const tc::rt::SwarmOptions& so) {
  SwarmSample s;
  const double cpu0 = thread_cpu_seconds();
  const auto t0 = Clock::now();
  tc::rt::SwarmResult res;
  try {
    res = tc::rt::run_local_swarm(so);
  } catch (const std::exception&) {
    s.wall_s = seconds_since(t0);
    s.cpu_s = thread_cpu_seconds() - cpu0;
    return s;
  }
  s.wall_s = seconds_since(t0);
  s.cpu_s = thread_cpu_seconds() - cpu0;
  s.ok = res.all_complete && res.check.clean();
  for (const auto& p : res.peers) {
    if (p.seeder) continue;
    // An unfinished leecher counts as finishing when the swarm stopped.
    const double f = p.complete ? p.finish_seconds : res.wall_seconds;
    s.finish_s.push_back(f);
    s.done_s = std::max(s.done_s, f);
  }
  s.first_piece_s = res.wall_seconds;
  for (const auto& e : res.events) {
    using tc::obs::EventKind;
    if (e.kind == EventKind::kPeerJoin) {
      s.setup_s = std::max(s.setup_s, e.t);
    } else if (e.kind == EventKind::kPieceSent) {
      s.first_piece_s = std::min(s.first_piece_s, e.t);
    } else if (e.kind == EventKind::kChainBreak &&
               (e.aux == static_cast<std::uint8_t>(
                             tc::obs::ChainBreakCause::kNoPayee) ||
                e.aux == static_cast<std::uint8_t>(
                             tc::obs::ChainBreakCause::kWatchdog))) {
      ++s.gratis_breaks;
    }
  }
  const auto metric = [&res](const std::string& key) {
    for (const auto& [k, v] : res.metrics) {
      if (k == key) return v;
    }
    return 0.0;
  };
  s.events = static_cast<double>(res.events_recorded);
  s.check_events = static_cast<double>(res.check.events);
  s.sent = metric("events.piece-sent");
  s.granted = metric("events.piece-granted");
  s.tx_open = metric("events.tx-open");
  s.tx_retry = metric("events.tx-retry");
  s.tx_timeout = metric("events.tx-timeout");
  s.key_delivered = metric("events.key-delivered");
  s.key_escrowed = metric("events.key-escrowed");
  s.chain_start = metric("events.chain-start");
  return s;
}

template <typename Get>
std::vector<double> collect(const std::vector<SwarmSample>& v, Get&& get) {
  std::vector<double> out;
  for (const auto& s : v) out.push_back(get(s));
  return out;
}

template <typename Get>
double total(const std::vector<SwarmSample>& v, Get&& get) {
  double t = 0.0;
  for (const auto& s : v) t += get(s);
  return t;
}

}  // namespace

Outcome run_live_workload(const Options& opts) {
  const LiveWorkload w = live_workload(opts.workload, opts.smoke);
  tc::rt::SwarmOptions base;
  base.peers = w.peers;
  base.piece_count = w.pieces;
  base.piece_bytes = w.piece_bytes;
  base.deadline_seconds = opts.live_deadline > 0 ? opts.live_deadline : 60.0;

  // Swarm i of the run uses seed mix_seed(--seed, i): the run's inputs are
  // one fixed sequence, whichever thread happens to take which swarm.
  std::atomic<std::uint64_t> next{0};
  std::mutex mu;
  std::vector<SwarmSample> samples;
  std::vector<double> durations;
  const auto start = Clock::now();
  auto worker = [&] {
    for (bool first = true;; first = false) {
      if (!first) {
        std::lock_guard<std::mutex> lock(mu);
        const double typical = durations.empty() ? 0.0 : median(durations);
        if (seconds_since(start) + typical > opts.seconds) return;
      }
      tc::rt::SwarmOptions so = base;
      so.seed = mix_seed(opts.seed, next.fetch_add(1));
      SwarmSample s = run_swarm(so);
      std::lock_guard<std::mutex> lock(mu);
      durations.push_back(s.wall_s);
      samples.push_back(std::move(s));
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < w.concurrency; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  const double rss_mib = peak_rss_mib();

  // A swarm builds and starts in milliseconds, and a run holds only a few
  // swarms, so set-up is also sampled on probe swarms whose deadline stops
  // them right after start. They run after peak_rss_mib is read and are
  // set-up samples, not operations. Within one run the samples fall in two
  // modes (about 3.5 and 5 ms on live-small) whose mix shifts from run to
  // run, so the run reports the fastest sample.
  std::vector<double> setups;
  if (!opts.trace) {
    constexpr std::uint64_t kSetupProbes = 9;
    for (std::uint64_t k = 0; k < kSetupProbes; ++k) {
      tc::rt::SwarmOptions so = base;
      so.seed = mix_seed(opts.seed, (std::uint64_t{1} << 32) + k);
      so.deadline_seconds = 1e-3;
      const double s = run_swarm(so).setup_s;
      if (s > 0.0) setups.push_back(s);
    }
  }

  Outcome out;
  std::vector<SwarmSample> good;
  for (const auto& s : samples) {
    ++out.attempted;
    if (s.ok) {
      good.push_back(s);
    } else {
      ++out.failed;
    }
  }
  // Metrics describe the successful swarms; with none, every swarm (so a
  // forced failure still prints a complete, if censored, result).
  const std::vector<SwarmSample>& use = good.empty() ? samples : good;
  const double leecher_pieces =
      static_cast<double>((w.peers - 1) * w.pieces);
  out.notes.push_back("live " + opts.workload + ": swarms=" +
                      std::to_string(samples.size()) + " concurrency=" +
                      std::to_string(w.concurrency) + " peers=" +
                      std::to_string(w.peers) + " pieces=" +
                      std::to_string(w.pieces) + "x" +
                      std::to_string(w.piece_bytes / 1024) + "KiB");

  if (!opts.trace) {
    // Means over the run's swarms, not medians: about half the swarms send
    // their first piece a second late, so with 6-8 swarms a median jumps
    // between the two modes from run to run (0.18 spread on swarm_done_s
    // over five seeds on live-bulk, 0.08 for the mean).
    for (const auto& s : use) setups.push_back(s.setup_s);
    const double done = mean(collect(use, [](auto& s) { return s.done_s; }));
    out.add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
    out.add("wall_s", mean(collect(use, [](auto& s) { return s.wall_s; })),
            "s");
    out.add("cpu_s", mean(collect(use, [](auto& s) { return s.cpu_s; })), "s");
    out.add("peak_rss_mib", rss_mib, "MiB");
    out.add("events_per_s",
            total(use, [](auto& s) { return s.events; }) /
                total(use, [](auto& s) { return s.cpu_s; }),
            "1/s");
    out.add("swarm_done_s", done, "s");
    out.add("leecher_done_p50_s",
            mean(collect(use, [](auto& s) { return median(s.finish_s); })),
            "s");
    out.add("pieces_per_s", done > 0 ? leecher_pieces / done : 0.0, "1/s");
    return out;
  }

  const double n = static_cast<double>(use.size());
  const double cpu = total(use, [](auto& s) { return s.cpu_s; });
  const double sent = total(use, [](auto& s) { return s.sent; });
  const double tx_open = total(use, [](auto& s) { return s.tx_open; });
  const double keys = total(use, [](auto& s) { return s.key_delivered; });
  const double piece_bytes = static_cast<double>(w.piece_bytes);
  const double codec = codec_ns_per_byte(w.piece_bytes);
  const double chacha = chacha20_ns_per_byte(w.piece_bytes);
  const double sha = sha256_ns_per_byte(w.piece_bytes);
  // One encrypt per piece sent, one decrypt + verify per key delivered:
  // a lower bound (re-encryption on forwarding and cascaded decrypts are
  // not counted).
  const double crypto_s =
      (sent * chacha + keys * (chacha + sha)) * piece_bytes * 1e-9;
  const double codec_s = sent * piece_bytes * codec * 1e-9;

  out.add("fail_share",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "share");
  out.add("tchain.tx_open", tx_open / n, "count");
  out.add("tchain.chain_start",
          total(use, [](auto& s) { return s.chain_start; }) / n, "count");
  out.add("tchain.tx_timeouts",
          total(use, [](auto& s) { return s.tx_timeout; }) / n, "count");
  out.add("tchain.keys_escrowed",
          total(use, [](auto& s) { return s.key_escrowed; }) / n, "count");
  out.add("obs.events_recorded",
          total(use, [](auto& s) { return s.events; }) / n, "count");
  out.add("check.events",
          total(use, [](auto& s) { return s.check_events; }) / n, "count");
  out.add("rt.idle_share",
          median(collect(use, [](auto& s) { return 1.0 - s.cpu_s / s.wall_s; })),
          "share");
  out.add("rt.retry_per_tx",
          tx_open > 0 ? total(use, [](auto& s) { return s.tx_retry; }) / tx_open
                      : 0.0,
          "share");
  out.add("rt.tx_timeout",
          total(use, [](auto& s) { return s.tx_timeout; }) / n, "count");
  out.add("rt.first_piece_s",
          median(collect(use, [](auto& s) { return s.first_piece_s; })), "s");
  out.add("rt.drain_s",
          median(collect(use, [](auto& s) { return s.wall_s - s.done_s; })),
          "s");
  out.add("rt.gratis_breaks",
          total(use, [](auto& s) { return s.gratis_breaks; }) / n, "count");
  out.add("rt.useful_piece_share",
          sent > 0 ? total(use, [](auto& s) { return s.granted; }) / sent : 0.0,
          "share");
  out.add("net.codec_ns_per_byte", codec, "ns");
  out.add("net.codec_share", cpu > 0 ? codec_s / cpu : 0.0, "share");
  out.add("crypto.chacha20_ns_per_byte", chacha, "ns");
  out.add("crypto.sha256_ns_per_byte", sha, "ns");
  out.add("crypto.share", cpu > 0 ? crypto_s / cpu : 0.0, "share");
  return out;
}

}  // namespace perfbench
