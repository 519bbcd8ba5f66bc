#include "src/sim/bandwidth.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tc::sim {

namespace {
// Sub-byte slack for float comparisons when deciding a flow is finished.
constexpr double kEps = 1e-6;
}  // namespace

void BandwidthModel::set_capacity(NodeId src, double bytes_per_sec) {
  if (bytes_per_sec < 0) throw std::invalid_argument("negative capacity");
  settle(src);
  // settle() may fire callbacks that grow uploaders_; re-index.
  auto& u = uploaders_[src];
  u.capacity = bytes_per_sec;
  reschedule(src, u);
}

double BandwidthModel::capacity(NodeId src) const {
  return src < uploaders_.size() ? uploaders_[src].capacity : 0.0;
}

double BandwidthModel::total_weight(const Uploader& u) const {
  double w = 0.0;
  for (const auto& f : u.flows) w += f.weight;
  return w;
}

void BandwidthModel::settle(NodeId src) {
  if (src >= uploaders_.size()) uploaders_.resize(std::size_t{src} + 1);
  Uploader& u = uploaders_[src];
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
  // The list borrows done_'s buffer; a reentrant settle finds it empty.
  std::vector<Flow> done = std::move(done_);
  for (auto it = u.flows.begin(); it != u.flows.end();) {
    if (it->remaining <= kEps) {
      done.push_back(std::move(*it));
      it = u.flows.erase(it);
    } else {
      ++it;
    }
  }
  if (!done.empty()) {
    reschedule(src, u);
    // NOTE: `u` may dangle once callbacks grow uploaders_; don't touch it
    // after this point.
    for (auto& f : done) {
      if (f.on_complete) f.on_complete(f.id);
    }
    done.clear();
  }
  if (done.capacity() > done_.capacity()) done_ = std::move(done);
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
    uploaders_[src].next_completion = {};
    settle(src);
    Uploader& again = uploaders_[src];
    if (!again.next_completion.valid()) reschedule(src, again);
  });
}

FlowId BandwidthModel::start_flow(NodeId src, NodeId dst, double bytes,
                                  CompletionFn on_complete, double weight) {
  if (weight <= 0) throw std::invalid_argument("flow weight must be positive");
  if (bytes < 0) throw std::invalid_argument("negative flow size");
  const FlowId id = next_flow_id_++;
  if (dst >= downloaded_.size()) downloaded_.resize(std::size_t{dst} + 1, 0.0);
  settle(src);
  // settle() may have fired callbacks that grew uploaders_; re-index.
  auto& u = uploaders_[src];
  u.flows.push_back(Flow{id, dst, bytes, weight, std::move(on_complete)});
  reschedule(src, u);
  return id;
}

bool BandwidthModel::cancel_flow(NodeId src, FlowId id) {
  const auto is_it = [id](const Flow& f) { return f.id == id; };
  // An unknown flow changes nothing at src: no settle.
  if (src >= uploaders_.size() ||
      std::none_of(uploaders_[src].flows.begin(), uploaders_[src].flows.end(),
                   is_it)) {
    return false;
  }
  settle(src);
  auto& u = uploaders_[src];
  const auto it = std::find_if(u.flows.begin(), u.flows.end(), is_it);
  if (it == u.flows.end()) return false;  // completed during settle
  u.flows.erase(it);
  reschedule(src, u);
  return true;
}

std::size_t BandwidthModel::active_flow_count(NodeId src) const {
  return src < uploaders_.size() ? uploaders_[src].flows.size() : 0;
}

double BandwidthModel::bytes_uploaded(NodeId src) const {
  if (src >= uploaders_.size()) return 0.0;
  // Include unsettled progress so metrics are exact at query time.
  const Uploader& u = uploaders_[src];
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
  return dst < downloaded_.size() ? downloaded_[dst] : 0.0;
}

}  // namespace tc::sim
