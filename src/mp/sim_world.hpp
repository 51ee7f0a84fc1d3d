#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mp/chaos.hpp"
#include "mp/endpoint.hpp"
#include "mp/message.hpp"
#include "sim/machine.hpp"

namespace pblpar::mp {

/// A simulated cluster of single-board computers — the paper's future-
/// work direction ("extend the module to ... distributed memory using
/// Message Passing Interface (MPI)") made runnable: one virtual thread
/// per node, connected by an alpha-beta network model.
struct ClusterSpec {
  /// Per-node machine (clock, overheads). One rank runs per node, so the
  /// node's core count is ignored.
  sim::MachineSpec node = sim::MachineSpec::raspberry_pi_3bplus();

  /// One-way network latency (alpha), in microseconds. Default: small
  /// switched Ethernet between Pis.
  double net_latency_us = 200.0;

  /// Network bandwidth (1/beta), in megabytes per second. The Pi 3B+'s
  /// Ethernet tops out near 94 Mbit/s ~ 11 MB/s.
  double net_bandwidth_mb_s = 11.0;

  /// Per-message software overhead charged to the sender, microseconds.
  double send_overhead_us = 25.0;

  /// Segment size for pipelined tree collectives on this network. The
  /// simulated wire really does store-and-forward, so large payloads
  /// stream in segments; 0 would disable segmentation (as the host
  /// world does by default).
  std::size_t pipeline_segment_bytes = detail::kPipelineSegmentBytes;

  /// Seeded transport-fault injection (drop / delay / duplicate /
  /// reorder per link), applied as messages enter the destination inbox.
  /// Empty (the default) leaves the wire perfect. Because every draw
  /// comes from a per-link xoshiro stream and the simulator serializes
  /// rank execution, a chaotic Sim run replays bit-for-bit from the same
  /// seed.
  TransportChaos chaos;

  /// Transfer time for a message of `bytes`, excluding latency, seconds.
  double transfer_seconds(std::size_t bytes) const {
    return send_overhead_us * 1e-6 +
           static_cast<double>(bytes) / (net_bandwidth_mb_s * 1e6);
  }
};

/// Outcome of a cluster run.
struct ClusterReport {
  sim::ExecutionReport machine;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  /// Outbound traffic per sending rank (indexed by rank; the totals
  /// above are their sums).
  std::vector<std::uint64_t> rank_messages;
  std::vector<std::uint64_t> rank_bytes;
};

namespace detail {

/// One node's inbox on the simulated network: messages carry their
/// arrival time (send completion + latency).
struct TimedMessage {
  RawMessage message;
  double arrival_s = 0.0;
};

struct SimWorldState {
  int size = 0;
  ClusterSpec spec;
  std::vector<std::deque<TimedMessage>> inboxes;
  std::vector<sim::MutexHandle> inbox_mutexes;
  std::vector<sim::ConditionHandle> inbox_conditions;
  std::unique_ptr<WireCounters[]> wire;  // indexed by the sending rank
  ChaosLinks<TimedMessage> chaos_links;
};

}  // namespace detail

/// One rank's endpoint on the simulated cluster. It implements the raw
/// transport under Endpoint's typed calls and collectives, so programs
/// written for the host-world Comm run here unchanged; timing comes from
/// the machine model: sends charge the software overhead plus
/// bytes/bandwidth to the sender, and a receive completes no earlier than
/// send-completion + latency (the rank "waits for the wire" in virtual
/// time).
class SimComm : public Endpoint<SimComm> {
 public:
  SimComm(detail::SimWorldState& world, sim::Context& ctx, int rank)
      : world_(&world), ctx_(&ctx), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size; }

  /// The simulated execution context of this rank's node (e.g. for
  /// charging local compute).
  sim::Context& context() { return *ctx_; }

  // --- raw transport (shared collective algorithms call these) ---------------

  /// Segment size for pipelined tree collectives, from the cluster spec.
  std::size_t pipeline_segment_bytes() const {
    return world_->spec.pipeline_segment_bytes;
  }

  void send_raw(int dest, int tag, std::size_t type_hash, Buffer payload);
  RawMessage recv_raw(int source, int tag);

  /// Outbound traffic of `rank` so far (default: this rank), in virtual
  /// time; mirrors Comm::wire_stats.
  WireStats wire_stats(int rank = -1) const;

  /// Non-throwing timed receive in *virtual* time: true and *out filled
  /// when a match shows up within `timeout_s` virtual seconds, false
  /// once the deadline passes with no match. A zero (or negative,
  /// clamped to zero) timeout is a poll: the inbox is scanned once and
  /// the rank yields exactly once before timing out, so polling costs
  /// one deterministic scheduler step. A message matched just before
  /// the deadline is still delivered (its remaining wire time is
  /// waited out even past the deadline).
  bool recv_raw_timed(int source, int tag, double timeout_s,
                      RawMessage* out);

 private:
  detail::SimWorldState* world_;
  sim::Context* ctx_;
  int rank_;
};

/// Run `rank_main` once per rank on a simulated cluster of `num_ranks`
/// nodes. Deterministic; missing messages surface as the machine's
/// DeadlockError rather than a timeout.
class SimWorld {
 public:
  static ClusterReport run(int num_ranks,
                           const std::function<void(SimComm&)>& rank_main,
                           ClusterSpec spec = {});
};

}  // namespace pblpar::mp
