#include "mp/comm.hpp"

#include <chrono>
#include <thread>

#include "util/error.hpp"

namespace pblpar::mp {

void Comm::send_raw(int dest, int tag, std::size_t type_hash,
                    Buffer payload) {
  util::require(dest >= 0 && dest < size(),
                "Comm::send: destination rank out of range");
  detail::WireCounters& wire = world_->wire[static_cast<std::size_t>(rank_)];
  wire.count_send(payload.size());
  RawMessage message;
  message.source = rank_;
  message.tag = tag;
  message.type_hash = type_hash;
  message.payload = std::move(payload);

  // Link (rank_, dest) is only touched by this rank's thread, so its
  // stream and hold slot need no locks.
  Mailbox& mailbox = *world_->mailboxes[static_cast<std::size_t>(dest)];
  detail::send_through_chaos(
      world_->chaos_links.find(rank_, dest), wire, std::move(message),
      [](RawMessage&, double delay_s) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay_s));
      },
      [&mailbox](RawMessage&& out) { mailbox.push(std::move(out)); });
}

RawMessage Comm::recv_raw(int source, int tag) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "Comm::recv: source rank out of range");
  return world_->mailboxes[static_cast<std::size_t>(rank_)]->pop_matching(
      source, tag);
}

bool Comm::recv_raw_timed(int source, int tag, double timeout_s,
                          RawMessage* out) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "Comm::recv: source rank out of range");
  return world_->mailboxes[static_cast<std::size_t>(rank_)]
      ->pop_matching_timed(source, tag, timeout_s, out);
}

WireStats Comm::wire_stats(int rank) const {
  const int target = rank < 0 ? rank_ : rank;
  util::require(target >= 0 && target < size(),
                "Comm::wire_stats: rank out of range");
  return world_->wire[static_cast<std::size_t>(target)].snapshot();
}

}  // namespace pblpar::mp
