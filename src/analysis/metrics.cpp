#include "src/analysis/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/util/units.h"

namespace tc::analysis {

PeerRecord& SwarmMetrics::record(std::uint32_t id) {
  if (const std::uint32_t slot = slot_of(id); slot != 0)
    return records_[slot - 1];
  if (id >= index_.size()) index_.resize(static_cast<std::size_t>(id) + 1, 0);
  records_.emplace_back();
  records_.back().id = id;
  index_[id] = static_cast<std::uint32_t>(records_.size());
  return records_.back();
}

const PeerRecord* SwarmMetrics::find(std::uint32_t id) const {
  const std::uint32_t slot = slot_of(id);
  return slot == 0 ? nullptr : &records_[slot - 1];
}

void SwarmMetrics::rekey(std::uint32_t old_id, std::uint32_t new_id) {
  const std::uint32_t slot = slot_of(old_id);
  if (slot == 0) throw std::invalid_argument("rekey: unknown peer");
  index_[old_id] = 0;
  if (new_id >= index_.size())
    index_.resize(static_cast<std::size_t>(new_id) + 1, 0);
  index_[new_id] = slot;
  PeerRecord& r = records_[slot - 1];
  r.id = new_id;
  ++r.whitewash_count;
}

std::vector<const PeerRecord*> SwarmMetrics::all() const {
  std::vector<const PeerRecord*> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(&r);
  return out;
}

bool SwarmMetrics::matches(const PeerRecord& r, PeerFilter f) const {
  if (r.seeder) return false;
  switch (f) {
    case PeerFilter::kCompliant: return !r.freerider;
    case PeerFilter::kFreeRiders: return r.freerider;
    case PeerFilter::kAll: return true;
  }
  return false;
}

util::Distribution SwarmMetrics::completion_times(PeerFilter f) const {
  util::Distribution d;
  for (const auto& r : records_) {
    if (matches(r, f) && r.finished()) d.add(r.completion_time());
  }
  return d;
}

std::size_t SwarmMetrics::unfinished_count(PeerFilter f) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (matches(r, f) && !r.finished()) ++n;
  }
  return n;
}

double SwarmMetrics::mean_uplink_utilization(PeerFilter f,
                                             SimTime end_time) const {
  util::RunningStats s;
  for (const auto& r : records_) {
    if (!matches(r, f)) continue;
    SimTime leave = r.finished() ? r.finish_time
                  : (r.depart_time >= 0 ? r.depart_time : end_time);
    const double dwell = leave - r.join_time;
    if (dwell <= 0 || r.upload_kbps <= 0) continue;
    const double cap_bytes = util::kbps_to_bytes_per_sec(r.upload_kbps) * dwell;
    s.add(std::min(1.0, r.bytes_uploaded / cap_bytes));
  }
  return s.mean();
}

util::Distribution SwarmMetrics::fairness_factors(std::size_t last_n) const {
  // Paper: fairness factor of the last N compliant leechers to finish.
  std::vector<const PeerRecord*> finished;
  for (const auto& r : records_) {
    if (matches(r, PeerFilter::kCompliant) && r.finished())
      finished.push_back(&r);
  }
  std::sort(finished.begin(), finished.end(),
            [](const PeerRecord* a, const PeerRecord* b) {
              return a->finish_time < b->finish_time;
            });
  if (last_n > 0 && finished.size() > last_n)
    finished.erase(finished.begin(),
                   finished.end() - static_cast<std::ptrdiff_t>(last_n));

  util::Distribution d;
  for (const auto* r : finished) {
    const double up = static_cast<double>(r->pieces_uploaded);
    const double down = static_cast<double>(r->pieces_downloaded);
    d.add(up > 0 ? down / up : std::numeric_limits<double>::infinity());
  }
  return d;
}

double SwarmMetrics::mean_download_throughput(SimTime horizon) const {
  util::RunningStats s;
  for (const auto& r : records_) {
    if (!matches(r, PeerFilter::kCompliant)) continue;
    if (r.join_time >= horizon) continue;
    SimTime leave = r.finished() ? r.finish_time
                  : (r.depart_time >= 0 ? r.depart_time : horizon);
    leave = std::min(leave, horizon);
    const double dwell = leave - r.join_time;
    if (dwell <= 0) continue;
    s.add(r.bytes_downloaded / dwell);
  }
  return s.mean();
}

double optimal_completion_time(double file_bytes, double seed_bytes_per_sec,
                               const std::vector<double>& leecher_bytes_per_sec) {
  if (seed_bytes_per_sec <= 0) throw std::invalid_argument("seed rate <= 0");
  double total = seed_bytes_per_sec;
  for (double u : leecher_bytes_per_sec) total += u;
  const double n = static_cast<double>(leecher_bytes_per_sec.size());
  return std::max(file_bytes / seed_bytes_per_sec, n * file_bytes / total);
}

}  // namespace tc::analysis
