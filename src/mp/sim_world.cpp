#include "mp/sim_world.hpp"

#include <algorithm>
#include <optional>

#include "util/error.hpp"

namespace pblpar::mp {

namespace {

/// Scan `inbox` (locked by the caller through `mutex`) for a match. On a
/// hit: remove it, unlock, wait out whatever wire time it still has in
/// virtual time (a message cannot be consumed before it arrives), and
/// return true with *out filled. On a miss the lock stays held.
bool take_match(sim::Context& ctx, std::deque<detail::TimedMessage>& inbox,
                sim::MutexHandle mutex, int source, int tag,
                RawMessage* out) {
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if ((source == kAnySource || it->message.source == source) &&
        (tag == kAnyTag || it->message.tag == tag)) {
      detail::TimedMessage timed = std::move(*it);
      inbox.erase(it);
      ctx.unlock(mutex);
      const double remaining_s = timed.arrival_s - ctx.now();
      if (remaining_s > 0.0) {
        ctx.compute(ctx.spec().us_to_ops(remaining_s * 1e6));
      }
      *out = std::move(timed.message);
      return true;
    }
  }
  return false;
}

}  // namespace

void SimComm::send_raw(int dest, int tag, std::size_t type_hash,
                       Buffer payload) {
  util::require(dest >= 0 && dest < size(),
                "SimComm::send: destination rank out of range");

  // The sender pays the software overhead plus the time to push the
  // bytes onto the wire (even when chaos then eats the message: the
  // sender cannot know the wire lost it).
  const std::size_t bytes = payload.size();
  ctx_->compute(ctx_->spec().us_to_ops(
      world_->spec.transfer_seconds(bytes) * 1e6));

  detail::TimedMessage timed;
  timed.message.source = rank_;
  timed.message.tag = tag;
  timed.message.type_hash = type_hash;
  timed.message.payload = std::move(payload);
  timed.arrival_s = ctx_->now() + world_->spec.net_latency_us * 1e-6;

  detail::WireCounters& wire = world_->wire[static_cast<std::size_t>(rank_)];
  wire.count_send(bytes);

  // Everything that goes out now lands in the inbox under one lock and
  // one wake-up; a dropped or held message takes neither.
  const auto to = static_cast<std::size_t>(dest);
  std::optional<sim::ScopedLock> lock;
  detail::send_through_chaos(
      world_->chaos_links.find(rank_, dest), wire, std::move(timed),
      [](detail::TimedMessage& late, double delay_s) {
        late.arrival_s += delay_s;
      },
      [&](detail::TimedMessage&& out) {
        if (!lock.has_value()) {
          lock.emplace(*ctx_, world_->inbox_mutexes[to]);
        }
        world_->inboxes[to].push_back(std::move(out));
      });
  if (lock.has_value()) {
    ctx_->notify_all(world_->inbox_conditions[to]);
  }
}

WireStats SimComm::wire_stats(int rank) const {
  const int target = rank < 0 ? rank_ : rank;
  util::require(target >= 0 && target < size(),
                "SimComm::wire_stats: rank out of range");
  return world_->wire[static_cast<std::size_t>(target)].snapshot();
}

RawMessage SimComm::recv_raw(int source, int tag) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "SimComm::recv: source rank out of range");
  const auto index = static_cast<std::size_t>(rank_);
  const sim::MutexHandle mutex = world_->inbox_mutexes[index];
  ctx_->lock(mutex);
  RawMessage out;
  while (!take_match(*ctx_, world_->inboxes[index], mutex, source, tag,
                     &out)) {
    ctx_->wait(world_->inbox_conditions[index], mutex);
  }
  return out;
}

bool SimComm::recv_raw_timed(int source, int tag, double timeout_s,
                             RawMessage* out) {
  util::require(source == kAnySource || (source >= 0 && source < size()),
                "SimComm::recv: source rank out of range");
  const auto index = static_cast<std::size_t>(rank_);
  const sim::MutexHandle mutex = world_->inbox_mutexes[index];
  // Zero (or negative, clamped) timeout = a poll: scan the inbox once,
  // then wait_until with a past deadline yields and times out at once.
  const double deadline_s = ctx_->now() + std::max(timeout_s, 0.0);
  ctx_->lock(mutex);
  while (!take_match(*ctx_, world_->inboxes[index], mutex, source, tag,
                     out)) {
    if (!ctx_->wait_until(world_->inbox_conditions[index], mutex,
                          deadline_s)) {
      ctx_->unlock(mutex);
      return false;
    }
  }
  return true;
}

ClusterReport SimWorld::run(int num_ranks,
                            const std::function<void(SimComm&)>& rank_main,
                            ClusterSpec spec) {
  util::require(num_ranks >= 1, "SimWorld::run: need at least one rank");
  util::require(rank_main != nullptr,
                "SimWorld::run: rank body must be callable");
  util::require(spec.net_bandwidth_mb_s > 0.0,
                "SimWorld::run: bandwidth must be positive");

  // One rank per node: model the cluster as num_ranks independent cores
  // with no shared-memory contention between them.
  sim::MachineSpec machine_spec = spec.node;
  machine_spec.name =
      "pi-cluster-" + std::to_string(num_ranks) + "node";
  machine_spec.cores = num_ranks;
  machine_spec.mem_contention_beta = 0.0;
  machine_spec.oversub_penalty = 0.0;
  sim::Machine machine(machine_spec);

  detail::SimWorldState state;
  state.size = num_ranks;
  state.spec = spec;
  state.inboxes.resize(static_cast<std::size_t>(num_ranks));
  state.wire = std::make_unique<detail::WireCounters[]>(
      static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    state.inbox_mutexes.push_back(machine.make_mutex());
    state.inbox_conditions.push_back(machine.make_condition());
  }
  state.chaos_links.arm(state.spec.chaos, num_ranks);

  ClusterReport report;
  report.machine = machine.run([&](sim::Context& root) {
    std::vector<sim::ThreadHandle> ranks;
    for (int r = 1; r < num_ranks; ++r) {
      ranks.push_back(root.spawn([&state, &rank_main, r](sim::Context& ctx) {
        SimComm comm(state, ctx, r);
        rank_main(comm);
      }));
    }
    SimComm comm(state, root, 0);
    rank_main(comm);
    for (const sim::ThreadHandle rank : ranks) {
      root.join(rank);
    }
  });
  for (int r = 0; r < num_ranks; ++r) {
    const WireStats wire = state.wire[static_cast<std::size_t>(r)].snapshot();
    report.messages += wire.messages;
    report.payload_bytes += wire.bytes;
    report.rank_messages.push_back(wire.messages);
    report.rank_bytes.push_back(wire.bytes);
  }
  return report;
}

}  // namespace pblpar::mp
