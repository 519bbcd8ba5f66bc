// Fluid bandwidth model.
//
// The paper assumes upload bandwidth is the limiting resource (download
// unconstrained), so each uploader's capacity is shared among its active
// flows — equally by default, or proportionally to per-flow weights (the
// generalization PropShare needs). Flow progress is tracked lazily: each
// uploader settles its flows' remaining bytes only when its flow set
// changes or a completion fires, keeping the model O(flows-per-uploader)
// per change rather than O(total flows).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace tc::sim {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

class BandwidthModel {
 public:
  // Invoked when a flow delivers its last byte. Receives the flow id.
  using CompletionFn = std::function<void(FlowId)>;

  explicit BandwidthModel(Simulator& sim) : sim_(sim) {}

  // Registers (or updates) an uploader's capacity in bytes/second.
  // Capacity 0 is legal (a free-rider's upload pipe): its flows never
  // progress. Changing capacity re-times in-flight flows.
  void set_capacity(NodeId uploader, double bytes_per_sec);
  double capacity(NodeId uploader) const;

  // Starts a flow of `bytes` from `src` to `dst`. `weight` scales this
  // flow's share of src's capacity relative to its siblings (> 0).
  FlowId start_flow(NodeId src, NodeId dst, double bytes,
                    CompletionFn on_complete, double weight = 1.0);

  // Cancels an in-flight flow (no callback). Returns false if unknown
  // (already completed or never existed).
  bool cancel_flow(FlowId id);

  std::size_t active_flow_count(NodeId src) const;
  bool flow_active(FlowId id) const { return flow_owner_.count(id) > 0; }

  // Cumulative delivered bytes (completed + settled partial progress).
  double bytes_uploaded(NodeId src) const;
  double bytes_downloaded(NodeId dst) const;

 private:
  struct Flow {
    FlowId id;
    NodeId dst;
    double remaining;
    double weight;
    CompletionFn on_complete;
  };

  struct Uploader {
    double capacity = 0.0;
    double uploaded = 0.0;  // settled cumulative bytes
    SimTime last_settle = 0.0;
    std::vector<Flow> flows;
    Simulator::EventId next_completion;
  };

  // Advances all of u's flows to sim_.now() and fires completions.
  void settle(NodeId src, Uploader& u);
  void reschedule(NodeId src, Uploader& u);
  double total_weight(const Uploader& u) const;

  Simulator& sim_;
  std::unordered_map<NodeId, Uploader> uploaders_;
  std::unordered_map<FlowId, NodeId> flow_owner_;
  std::unordered_map<NodeId, double> downloaded_;
  FlowId next_flow_id_ = 1;
};

}  // namespace tc::sim
