#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mp/chaos.hpp"
#include "mp/endpoint.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"

namespace pblpar::mp {

namespace detail {

/// Shared state of one world: every rank's mailbox plus the abort flag.
struct WorldState {
  explicit WorldState(int size, double timeout_s,
                      std::size_t pipeline_segment_bytes = 0,
                      TransportChaos chaos_plan = {})
      : size(size),
        pipeline_segment_bytes(pipeline_segment_bytes),
        chaos(std::move(chaos_plan)) {
    mailboxes.reserve(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) {
      mailboxes.push_back(std::make_unique<Mailbox>(abort, timeout_s, r));
    }
    wire = std::make_unique<WireCounters[]>(static_cast<std::size_t>(size));
    chaos_links.arm(chaos, size);
  }
  int size;
  std::size_t pipeline_segment_bytes;
  TransportChaos chaos;
  AbortState abort;
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  std::unique_ptr<WireCounters[]> wire;
  ChaosLinks<RawMessage> chaos_links;
};

}  // namespace detail

/// A communicator endpoint: one rank's handle on the world (the TeachMPI
/// analogue of MPI_COMM_WORLD seen from one process). The typed calls and
/// collectives come from Endpoint; Comm implements the raw transport over
/// the world's in-process mailboxes.
class Comm : public Endpoint<Comm> {
 public:
  Comm(detail::WorldState& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size; }

  /// Segment size for pipelined tree collectives; 0 means "never
  /// segment" (the host default — frames are refcounted in shared
  /// memory, so forwarding a whole payload is free and splitting it
  /// only adds assembly copies).
  std::size_t pipeline_segment_bytes() const {
    return world_->pipeline_segment_bytes;
  }

  void send_raw(int dest, int tag, std::size_t type_hash, Buffer payload);
  RawMessage recv_raw(int source, int tag);

  /// Non-throwing timed receive: true and *out filled when a match
  /// arrives within `timeout_s`, false on timeout. A zero (or negative)
  /// timeout is a poll: the mailbox is scanned once and the call
  /// returns immediately, never blocking. Used by pollers (the cluster
  /// master, a worker's cancel check) that must keep running while
  /// peers are silent.
  bool recv_raw_timed(int source, int tag, double timeout_s,
                      RawMessage* out);

  /// Outbound traffic of `rank` so far (default: this rank). Counters
  /// are world-wide, so the master can snapshot every rank's totals.
  WireStats wire_stats(int rank = -1) const;

 private:
  detail::WorldState* world_;
  int rank_;
};

}  // namespace pblpar::mp
