// Fluid bandwidth model.
//
// The paper assumes upload bandwidth is the limiting resource (download
// unconstrained), so each uploader's capacity is shared among its active
// flows — equally by default, or proportionally to per-flow weights (the
// generalization PropShare needs). Flow progress is tracked lazily: each
// uploader settles its flows' remaining bytes only when its flow set
// changes or a completion fires, keeping the model O(flows-per-uploader)
// per change rather than O(total flows).
//
// State is dense: uploaders and download totals are vectors indexed by
// NodeId (swarm ids are minted densely from 1), grown on first use, and a
// flow lives only in its uploader's list (cancelling names the uploader),
// so no flow start, settle or completion touches a hash table. Callbacks
// may start or cancel flows reentrantly and so grow the vectors: code
// that fires them re-indexes afterwards.
#pragma once

#include <cstdint>
#include <functional>
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
  void set_capacity(NodeId src, double bytes_per_sec);
  double capacity(NodeId src) const;

  // Starts a flow of `bytes` from `src` to `dst`. `weight` scales this
  // flow's share of src's capacity relative to its siblings (> 0).
  FlowId start_flow(NodeId src, NodeId dst, double bytes,
                    CompletionFn on_complete, double weight = 1.0);

  // Cancels src's in-flight flow `id` (no callback). Returns false if src
  // has no such flow (already completed or never existed).
  bool cancel_flow(NodeId src, FlowId id);

  std::size_t active_flow_count(NodeId src) const;

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

  // Advances all of src's flows to sim_.now() and fires completions
  // (creating src's state on first use).
  void settle(NodeId src);
  void reschedule(NodeId src, Uploader& u);
  double total_weight(const Uploader& u) const;

  Simulator& sim_;
  std::vector<Uploader> uploaders_;  // indexed by NodeId
  std::vector<double> downloaded_;  // indexed by NodeId
  std::vector<Flow> done_;  // settle's finished-flow buffer, kept for reuse
  FlowId next_flow_id_ = 1;
};

}  // namespace tc::sim
