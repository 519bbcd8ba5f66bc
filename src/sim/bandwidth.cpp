#include "src/sim/bandwidth.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tc::sim {

namespace {
// Sub-byte slack for float comparisons when deciding a flow is finished.
constexpr double kEps = 1e-6;
}  // namespace

void BandwidthModel::set_capacity(NodeId src, double bytes_per_sec) {
  if (bytes_per_sec < 0) throw std::invalid_argument("negative capacity");
  settle(src);
  // settle() may fire callbacks that grow nodes_; re-index.
  auto& u = nodes_[src];
  u.capacity = bytes_per_sec;
  reschedule(src, u);
}

double BandwidthModel::capacity(NodeId src) const {
  return src < nodes_.size() ? nodes_[src].capacity : 0.0;
}

double BandwidthModel::total_weight(const Node& u) const {
  double w = 0.0;
  for (const auto& f : u.flows) w += f.weight;
  return w;
}

BandwidthModel::Flow* BandwidthModel::find(NodeId src, FlowId id) {
  if (src >= nodes_.size()) return nullptr;
  auto& flows = nodes_[src].flows;
  const auto it = std::find_if(flows.begin(), flows.end(),
                               [id](const Flow& f) { return f.id == id; });
  return it == flows.end() ? nullptr : &*it;
}

void BandwidthModel::unlink_inbound(NodeId dst, FlowId id) {
  auto& in = nodes_[dst].inbound;
  const auto it = std::find_if(in.begin(), in.end(),
                               [id](const FlowRef& r) { return r.id == id; });
  *it = in.back();
  in.pop_back();
}

void BandwidthModel::settle(NodeId src) {
  if (src >= nodes_.size()) nodes_.resize(std::size_t{src} + 1);
  Node& u = nodes_[src];
  const SimTime now = sim_.now();
  const double dt = now - u.last_settle;
  u.last_settle = now;
  if (dt > 0 && u.capacity > 0 && !u.flows.empty()) {
    const double w_total = total_weight(u);
    for (auto& f : u.flows) {
      f.remaining -=
          std::min(f.remaining, u.capacity * (f.weight / w_total) * dt);
    }
  }

  // Extract finished flows, then fire their callbacks with internal state
  // already consistent (callbacks may start or cancel flows reentrantly).
  // The list borrows done_'s buffer; a reentrant settle finds it empty.
  std::vector<Flow> done = std::move(done_);
  for (auto it = u.flows.begin(); it != u.flows.end();) {
    if (it->remaining <= kEps) {
      unlink_inbound(it->dst, it->id);
      done.push_back(std::move(*it));
      it = u.flows.erase(it);
    } else {
      ++it;
    }
  }
  if (!done.empty()) {
    reschedule(src, u);
    // NOTE: `u` may dangle once callbacks grow nodes_; don't touch it
    // after this point.
    for (auto& f : done) {
      if (f.on_done) f.on_done(f.id, true);
    }
    done.clear();
  }
  if (done.capacity() > done_.capacity()) done_ = std::move(done);
}

void BandwidthModel::reschedule(NodeId src, Node& u) {
  if (u.flows.empty() || u.capacity <= 0) {
    if (u.completion) sim_.disarm(*u.completion);
    return;
  }

  const double w_total = total_weight(u);
  double earliest = std::numeric_limits<double>::infinity();
  for (const auto& f : u.flows) {
    const double rate = u.capacity * (f.weight / w_total);
    earliest = std::min(earliest, f.remaining / rate);
  }
  if (!u.completion) {
    u.completion = sim_.add_timer([this, src] {
      settle(src);
      Node& again = nodes_[src];
      if (!sim_.armed(*again.completion)) reschedule(src, again);
    });
  }
  sim_.arm(*u.completion, sim_.now() + earliest);
}

FlowId BandwidthModel::start_flow(NodeId src, NodeId dst, double bytes,
                                  FlowFn on_done, double weight) {
  if (weight <= 0) throw std::invalid_argument("flow weight must be positive");
  if (bytes < 0) throw std::invalid_argument("negative flow size");
  const FlowId id = next_flow_id_++;
  if (dst >= nodes_.size()) nodes_.resize(std::size_t{dst} + 1);
  settle(src);
  // settle() may have fired callbacks that grew nodes_; re-index.
  auto& u = nodes_[src];
  u.flows.push_back(Flow{id, dst, bytes, weight, std::move(on_done)});
  nodes_[dst].inbound.push_back(FlowRef{id, src});
  reschedule(src, u);
  return id;
}

bool BandwidthModel::cancel_flow(NodeId src, FlowId id) {
  // An unknown flow changes nothing at src: no settle.
  if (find(src, id) == nullptr) return false;
  settle(src);
  Flow* f = find(src, id);
  if (f == nullptr) return false;  // completed during settle
  unlink_inbound(f->dst, id);
  auto& u = nodes_[src];
  u.flows.erase(u.flows.begin() + (f - u.flows.data()));
  reschedule(src, u);
  return true;
}

void BandwidthModel::abort_flows(NodeId node) {
  if (node >= nodes_.size()) return;
  const Node& n = nodes_[node];
  if (n.flows.empty() && n.inbound.empty()) return;
  std::vector<FlowRef> dead(n.inbound);
  for (const Flow& f : n.flows) dead.push_back(FlowRef{f.id, node});
  std::sort(dead.begin(), dead.end(),
            [](const FlowRef& a, const FlowRef& b) { return a.id < b.id; });
  for (const auto& [id, src] : dead) {
    // Gone already: delivered by an earlier abort's settle, or a self-flow
    // listed twice.
    Flow* f = find(src, id);
    if (f == nullptr) continue;
    // Taken out first, so a completion in cancel_flow's settle reports
    // nothing for this flow.
    FlowFn on_done = std::exchange(f->on_done, nullptr);
    cancel_flow(src, id);
    if (on_done) on_done(id, false);
  }
}

}  // namespace tc::sim
