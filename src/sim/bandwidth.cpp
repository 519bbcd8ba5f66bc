#include "src/sim/bandwidth.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tc::sim {

namespace {
// Sub-byte slack for float comparisons when deciding a flow is finished.
constexpr double kEps = 1e-6;
}  // namespace

void BandwidthModel::set_capacity(NodeId uploader, double bytes_per_sec) {
  if (bytes_per_sec < 0) throw std::invalid_argument("negative capacity");
  settle(uploader, uploaders_[uploader]);
  // settle() may fire callbacks that rehash the map; re-find.
  auto& u = uploaders_[uploader];
  u.capacity = bytes_per_sec;
  reschedule(uploader, u);
}

double BandwidthModel::capacity(NodeId uploader) const {
  const auto it = uploaders_.find(uploader);
  return it == uploaders_.end() ? 0.0 : it->second.capacity;
}

double BandwidthModel::total_weight(const Uploader& u) const {
  double w = 0.0;
  for (const auto& f : u.flows) w += f.weight;
  return w;
}

void BandwidthModel::settle(NodeId src, Uploader& u) {
  const SimTime now = sim_.now();
  const double dt = now - u.last_settle;
  u.last_settle = now;
  if (dt > 0 && u.capacity > 0 && !u.flows.empty()) {
    const double w_total = total_weight(u);
    for (auto& f : u.flows) {
      const double delivered =
          std::min(f.remaining, u.capacity * (f.weight / w_total) * dt);
      f.remaining -= delivered;
      u.uploaded += delivered;
      downloaded_[f.dst] += delivered;
    }
  }

  // Extract finished flows, then fire their callbacks with internal state
  // already consistent (callbacks may start or cancel flows reentrantly).
  std::vector<Flow> done;
  for (auto it = u.flows.begin(); it != u.flows.end();) {
    if (it->remaining <= kEps) {
      flow_owner_.erase(it->id);
      done.push_back(std::move(*it));
      it = u.flows.erase(it);
    } else {
      ++it;
    }
  }
  if (!done.empty()) {
    reschedule(src, u);
    // NOTE: `u` may dangle once callbacks mutate uploaders_; don't touch it
    // after this point.
    for (auto& f : done) {
      if (f.on_complete) f.on_complete(f.id);
    }
  }
}

void BandwidthModel::reschedule(NodeId src, Uploader& u) {
  if (u.next_completion.valid()) {
    sim_.cancel(u.next_completion);
    u.next_completion = {};
  }
  if (u.flows.empty() || u.capacity <= 0) return;

  const double w_total = total_weight(u);
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& f : u.flows) {
    const double rate = u.capacity * (f.weight / w_total);
    earliest = std::min(earliest, f.remaining / rate);
  }
  u.next_completion = sim_.schedule_in(earliest, [this, src] {
    auto it = uploaders_.find(src);
    if (it == uploaders_.end()) return;
    it->second.next_completion = {};
    settle(src, it->second);
    auto again = uploaders_.find(src);
    if (again != uploaders_.end() && !again->second.next_completion.valid())
      reschedule(src, again->second);
  });
}

FlowId BandwidthModel::start_flow(NodeId src, NodeId dst, double bytes,
                                  CompletionFn on_complete, double weight) {
  if (weight <= 0) throw std::invalid_argument("flow weight must be positive");
  if (bytes < 0) throw std::invalid_argument("negative flow size");
  const FlowId id = next_flow_id_++;
  auto& u = uploaders_[src];
  settle(src, u);
  // settle() may have fired callbacks that rehashed the map; re-find.
  auto& u2 = uploaders_[src];
  u2.flows.push_back(Flow{id, dst, bytes, weight, std::move(on_complete)});
  flow_owner_[id] = src;
  reschedule(src, u2);
  return id;
}

bool BandwidthModel::cancel_flow(FlowId id) {
  const auto owner = flow_owner_.find(id);
  if (owner == flow_owner_.end()) return false;
  const NodeId src = owner->second;
  auto& u = uploaders_[src];
  settle(src, u);
  auto& u2 = uploaders_[src];
  auto it = std::find_if(u2.flows.begin(), u2.flows.end(),
                         [&](const Flow& f) { return f.id == id; });
  if (it == u2.flows.end()) return false;  // completed during settle
  u2.flows.erase(it);
  flow_owner_.erase(id);
  reschedule(src, u2);
  return true;
}

std::size_t BandwidthModel::active_flow_count(NodeId src) const {
  const auto it = uploaders_.find(src);
  return it == uploaders_.end() ? 0 : it->second.flows.size();
}

double BandwidthModel::bytes_uploaded(NodeId src) const {
  const auto it = uploaders_.find(src);
  if (it == uploaders_.end()) return 0.0;
  // Include unsettled progress so metrics are exact at query time.
  const Uploader& u = it->second;
  double total = u.uploaded;
  const double dt = sim_.now() - u.last_settle;
  if (dt > 0 && u.capacity > 0 && !u.flows.empty()) {
    const double w_total = total_weight(u);
    for (const auto& f : u.flows)
      total += std::min(f.remaining, u.capacity * (f.weight / w_total) * dt);
  }
  return total;
}

double BandwidthModel::bytes_downloaded(NodeId dst) const {
  const auto it = downloaded_.find(dst);
  return it == downloaded_.end() ? 0.0 : it->second;
}

}  // namespace tc::sim
