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
// The model is the only record of an in-flight flow. State is dense: nodes
// are a vector indexed by NodeId (swarm ids are minted densely from 1),
// grown on first use. A flow lives in its uploader's list, and its
// destination keeps a (FlowId, uploader) reference to it so abort_flows
// finds a node's inbound flows without a scan; no flow start, settle or
// completion touches a hash table. Callbacks may start, cancel or abort
// flows reentrantly and so grow the vector: code that fires them
// re-indexes afterwards.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace tc::sim {

using NodeId = std::uint32_t;
using FlowId = std::uint64_t;

class BandwidthModel {
 public:
  // Invoked once per flow: when it delivers its last byte (ok == true), or
  // when abort_flows removes it first (ok == false).
  using FlowFn = std::function<void(FlowId, bool ok)>;

  explicit BandwidthModel(Simulator& sim) : sim_(sim) {}

  // Registers (or updates) an uploader's capacity in bytes/second.
  // Capacity 0 is legal (a free-rider's upload pipe): its flows never
  // progress. Changing capacity re-times in-flight flows.
  void set_capacity(NodeId src, double bytes_per_sec);
  double capacity(NodeId src) const;

  // Starts a flow of `bytes` from `src` to `dst`. `weight` scales this
  // flow's share of src's capacity relative to its siblings (> 0).
  FlowId start_flow(NodeId src, NodeId dst, double bytes, FlowFn on_done,
                    double weight = 1.0);
  // Completion-only form: `on_complete(id)` runs on delivery; an abort
  // reports nothing.
  template <std::invocable<FlowId> F>
  FlowId start_flow(NodeId src, NodeId dst, double bytes, F on_complete,
                    double weight = 1.0) {
    return start_flow(
        src, dst, bytes,
        FlowFn([f = std::move(on_complete)](FlowId id, bool ok) mutable {
          if (ok) f(id);
        }),
        weight);
  }

  // Cancels src's in-flight flow `id` (no callback). Returns false if src
  // has no such flow (already completed or never existed).
  bool cancel_flow(NodeId src, FlowId id);

  // Aborts every flow from or to `node`, in ascending FlowId. Each is
  // cancelled as cancel_flow does (its uploader settled up to now, sibling
  // flows re-timed), then its callback runs with ok == false; a flow due at
  // this same instant is aborted, not delivered. Flows that the callbacks
  // start are left alone; one that an earlier abort's settle delivered is
  // skipped.
  void abort_flows(NodeId node);

 private:
  struct Flow {
    FlowId id;
    NodeId dst;
    double remaining;
    double weight;
    FlowFn on_done;
  };
  struct FlowRef {
    FlowId id;
    NodeId src;
  };

  struct Node {
    double capacity = 0.0;
    SimTime last_settle = 0.0;
    std::vector<Flow> flows;       // outbound, ascending FlowId
    std::vector<FlowRef> inbound;  // flows to this node, any order
    // Armed at the next completion; added by the first reschedule that
    // has a completion to time.
    std::optional<Simulator::Timer> completion;
  };

  // Advances all of src's flows to sim_.now() and fires completions
  // (creating src's state on first use).
  void settle(NodeId src);
  void reschedule(NodeId src, Node& u);
  double total_weight(const Node& u) const;
  Flow* find(NodeId src, FlowId id);
  // Drops `id`'s reference from dst's inbound list.
  void unlink_inbound(NodeId dst, FlowId id);

  Simulator& sim_;
  std::vector<Node> nodes_;  // indexed by NodeId
  std::vector<Flow> done_;  // settle's finished-flow buffer, kept for reuse
  FlowId next_flow_id_ = 1;
};

}  // namespace tc::sim
