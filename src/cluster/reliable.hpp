#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "mp/comm.hpp"
#include "mp/endpoint.hpp"
#include "mp/sim_world.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::cluster {

/// Tuning for the ack/retry/dedup sublayer (ReliableComm). All times are
/// in the transport's own clock domain: wall seconds on the host world,
/// virtual seconds on the Sim world — which is what makes chaotic Sim
/// runs (retransmits included) replay bit-for-bit.
struct ReliabilityOptions {
  /// Wrap the cluster engine's transport in ReliableComm. Off by
  /// default: a perfect in-process wire needs no acks, and the unarmed
  /// path stays byte-identical to previous releases.
  bool enabled = false;

  /// How long a sequenced message may stay unacked before its first
  /// retransmit.
  double ack_timeout_s = 0.05;

  /// Exponential backoff: each retransmit multiplies the wait by this.
  double backoff_factor = 2.0;

  /// Ceiling on the backed-off wait between retransmits.
  double max_backoff_s = 2.0;

  /// Seeded uniform(0, jitter_s) added to every retransmit wait so
  /// synchronized senders do not retransmit in lockstep.
  double jitter_s = 0.005;

  /// Retransmits per message before the sender abandons it. Abandonment
  /// is deliberate and silent (counted in RetryStats::abandoned): a
  /// peer that never acks is dead, and liveness is the engine's job
  /// (heartbeat timeouts), not the transport's.
  int max_retransmits = 12;

  /// How long ReliableComm::recv_raw may block with no deliverable
  /// message before declaring deadlock (MpDeadlockError), mirroring the
  /// host world's recv timeout.
  double recv_timeout_s = 30.0;

  std::uint64_t seed = 1;

  /// Fail loudly on degenerate tuning (negative retry budgets,
  /// non-finite backoff, zero timeouts).
  void validate() const {
    util::require(std::isfinite(ack_timeout_s) && ack_timeout_s > 0.0,
                  "ReliabilityOptions::validate: ack timeout must be finite "
                  "and positive");
    util::require(std::isfinite(backoff_factor) && backoff_factor >= 1.0,
                  "ReliabilityOptions::validate: backoff factor must be "
                  "finite and at least 1");
    util::require(std::isfinite(max_backoff_s) &&
                      max_backoff_s >= ack_timeout_s,
                  "ReliabilityOptions::validate: backoff ceiling must be "
                  "finite and no smaller than the ack timeout");
    util::require(std::isfinite(jitter_s) && jitter_s >= 0.0,
                  "ReliabilityOptions::validate: retransmit jitter must be "
                  "finite and non-negative");
    util::require(max_retransmits >= 0,
                  "ReliabilityOptions::validate: retransmit budget must be "
                  "non-negative");
    util::require(std::isfinite(recv_timeout_s) && recv_timeout_s > 0.0,
                  "ReliabilityOptions::validate: receive timeout must be "
                  "finite and positive");
  }
};

/// One endpoint's reliability counters. On the Sim world these are a
/// pure function of (workload, chaos plan, seeds) and replay exactly.
struct RetryStats {
  std::uint64_t data_sent = 0;           // sequenced sends
  std::uint64_t fire_and_forget_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;           // budget exhausted, peer presumed dead
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t duplicates_dropped = 0;  // dedup hits (chaos dup or retry echo)
  std::uint64_t out_of_order_stashed = 0;
};

namespace detail {

/// Internal tag of ack messages. Distinct from user tags (>= 0), the
/// collective tags (-2..-9) and the engine tags ((1 << 20) + n).
constexpr int kReliableAckTag = -101;

constexpr std::size_t kEnvelopeBytes = 16;  // [u64 seq][u64 flags]
constexpr std::uint64_t kFlagNeedsAck = 1;

/// Ack payload: the link sequence number being acknowledged.
struct AckRecord {
  std::uint64_t seq = 0;
};

}  // namespace detail

/// How the cluster tier reads each transport's clock and charges modelled
/// work on it; now() is seconds on the transport's clock (wall seconds on
/// the host world, virtual seconds on the Sim world).
template <class CommT>
struct TransportTraits;

template <>
struct TransportTraits<mp::Comm> {
  static constexpr rt::TraceClock kClock = rt::TraceClock::HostSteady;
  static double now(mp::Comm&) {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  // Host tasks do real work; modelled charges are meaningless.
  static void charge_ops(mp::Comm&, double) {}
  static void charge_seconds(mp::Comm&, double) {}
};

template <>
struct TransportTraits<mp::SimComm> {
  static constexpr rt::TraceClock kClock = rt::TraceClock::SimVirtual;
  static double now(mp::SimComm& comm) { return comm.context().now(); }
  static void charge_ops(mp::SimComm& comm, double ops) {
    if (ops > 0.0) {
      comm.context().compute(ops);
    }
  }
  static void charge_seconds(mp::SimComm& comm, double seconds) {
    if (seconds > 0.0) {
      comm.context().compute(
          comm.context().spec().us_to_ops(seconds * 1e6));
    }
  }
};

/// The ack/retry/dedup sublayer: wraps a Comm or SimComm and implements
/// the same raw transport concept (rank/size/pipeline_segment_bytes/
/// send_raw/recv_raw/recv_raw_timed) under mp::Endpoint's typed calls and
/// collectives, so every collective algorithm and the cluster engine run
/// over it unchanged — but now they survive an armed mp::TransportChaos
/// plan.
///
/// Protocol: every sequenced payload is prefixed with a 16-byte envelope
/// [u64 seq][u64 flags]. Sequence numbers are monotonic per directed
/// link (sender, receiver), so the receiver can (a) deliver strictly in
/// send order — restoring the per-source FIFO that segmented collectives
/// and the engine's Done-then-Request handshake rely on — and (b) drop
/// duplicates exactly-once, whether chaos duplicated the wire message or
/// a retransmit crossed with its own ack. Receivers ack every sequenced
/// message (including duplicates, whose original ack may have been the
/// loss); senders retransmit on an exponential-backoff timer with seeded
/// jitter until acked or the retry budget is spent.
///
/// Every rank of a world must wrap its endpoint (the envelope is not
/// self-describing); heartbeat-style traffic can opt out per message via
/// send_raw_fire_and_forget (seq 0: no ack, no retry, no ordering).
template <class CommT>
class ReliableComm : public mp::Endpoint<ReliableComm<CommT>> {
 public:
  ReliableComm(CommT& comm, ReliabilityOptions options)
      : comm_(&comm), options_(options) {
    options_.validate();
    util::SplitMix64 mix(options_.seed ^
                         (0xA0761D6478BD642FULL *
                          (static_cast<std::uint64_t>(comm.rank()) + 1)));
    jitter_rng_ = util::Rng(mix.next());
  }

  ReliableComm(const ReliableComm&) = delete;
  ReliableComm& operator=(const ReliableComm&) = delete;

  int rank() const { return comm_->rank(); }
  int size() const { return comm_->size(); }
  std::size_t pipeline_segment_bytes() const {
    return comm_->pipeline_segment_bytes();
  }

  CommT& underlying() { return *comm_; }
  const ReliabilityOptions& options() const { return options_; }
  const RetryStats& retry_stats() const { return stats_; }
  mp::WireStats wire_stats(int rank = -1) const {
    return comm_->wire_stats(rank);
  }

  // --- raw transport (the collective algorithms and engine call these) ------

  void send_raw(int dest, int tag, std::size_t type_hash,
                mp::Buffer payload) {
    const std::uint64_t seq = ++next_seq_[dest];
    mp::Buffer envelope =
        make_envelope(seq, detail::kFlagNeedsAck, payload);
    double now = now_s();
    Pending pending;
    pending.dest = dest;
    pending.tag = tag;
    pending.seq = seq;
    pending.type_hash = type_hash;
    pending.envelope = envelope;
    pending.backoff_s = options_.ack_timeout_s;
    pending.next_retry_s = now + pending.backoff_s + jitter();
    unacked_.push_back(std::move(pending));
    stats_.data_sent += 1;
    comm_->send_raw(dest, tag, type_hash, std::move(envelope));
    pump(now_s());
  }

  /// Unsequenced, unacknowledged send: the message may be lost,
  /// duplicated or reordered under chaos, and the layer will not care.
  /// For idempotent liveness traffic (the engine's heartbeats) where a
  /// retransmit queue would only delay fresher news.
  void send_raw_fire_and_forget(int dest, int tag, std::size_t type_hash,
                                mp::Buffer payload) {
    mp::Buffer envelope = make_envelope(0, 0, payload);
    stats_.fire_and_forget_sent += 1;
    comm_->send_raw(dest, tag, type_hash, std::move(envelope));
  }

  mp::RawMessage recv_raw(int source, int tag) {
    mp::RawMessage out;
    if (!recv_raw_timed(source, tag, options_.recv_timeout_s, &out)) {
      throw mp::MpDeadlockError(
          "ReliableComm::recv_raw: no deliverable message from source " +
          std::to_string(source) + " tag " + std::to_string(tag) +
          " within " + std::to_string(options_.recv_timeout_s) +
          "s (peer dead or retry budget spent?)");
    }
    return out;
  }

  bool recv_raw_timed(int source, int tag, double timeout_s,
                      mp::RawMessage* out) {
    double now = now_s();
    const double deadline_s = now + (timeout_s > 0.0 ? timeout_s : 0.0);
    for (;;) {
      if (take_delivered(source, tag, out)) {
        return true;
      }
      pump(now);
      if (take_delivered(source, tag, out)) {
        return true;
      }
      now = now_s();
      if (now >= deadline_s) {
        return false;
      }
      // Sleep on the underlying transport until the next message, the
      // caller's deadline, or the next retransmit is due — whichever is
      // first.
      wait_on_wire(std::min(deadline_s - now, next_retry_s() - now));
      now = now_s();
    }
  }

  /// Block until every sequenced send has been acked or abandoned;
  /// returns how many were abandoned (0 = everything confirmed
  /// delivered). Call at protocol wind-down: a sender that simply
  /// returns with messages unacked would strand its peers' last
  /// exchanges.
  std::uint64_t flush() {
    const std::uint64_t abandoned_before = stats_.abandoned;
    while (!unacked_.empty()) {
      pump(now_s());
      if (unacked_.empty()) {
        break;
      }
      wait_on_wire(next_retry_s() - now_s());
    }
    return stats_.abandoned - abandoned_before;
  }

 private:
  struct Pending {
    int dest = -1;
    int tag = 0;
    std::uint64_t seq = 0;
    std::size_t type_hash = 0;
    mp::Buffer envelope;  // refcounted; retransmits share the bytes
    double next_retry_s = 0.0;
    double backoff_s = 0.0;
    int retransmits = 0;
  };

  /// Per-source receive ordering: the next link sequence we may deliver
  /// plus a stash of early arrivals.
  struct RecvLink {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, mp::RawMessage> stash;
  };

  double now_s() { return TransportTraits<CommT>::now(*comm_); }

  double jitter() {
    return options_.jitter_s > 0.0
               ? jitter_rng_.uniform(0.0, options_.jitter_s)
               : 0.0;
  }

  mp::Buffer make_envelope(std::uint64_t seq, std::uint64_t flags,
                           const mp::Buffer& payload) {
    mp::Buffer envelope =
        mp::Buffer::uninitialized(detail::kEnvelopeBytes + payload.size());
    std::byte* dst = envelope.mutable_data();
    std::memcpy(dst, &seq, sizeof(seq));
    std::memcpy(dst + sizeof(seq), &flags, sizeof(flags));
    mp::detail::copy_payload(dst + detail::kEnvelopeBytes, payload.data(),
                             payload.size());
    return envelope;
  }

  /// When the earliest unacked send is due for a retransmit; +inf with
  /// nothing unacked.
  double next_retry_s() const {
    double next = std::numeric_limits<double>::infinity();
    for (const Pending& pending : unacked_) {
      next = std::min(next, pending.next_retry_s);
    }
    return next;
  }

  /// Block on the underlying transport for up to `slice_s` (never a pure
  /// spin) and demux what arrives.
  void wait_on_wire(double slice_s) {
    mp::RawMessage raw;
    if (comm_->recv_raw_timed(mp::kAnySource, mp::kAnyTag,
                              std::max(slice_s, 1e-4), &raw)) {
      demux(std::move(raw));
    }
  }

  /// Drain everything the underlying transport has ready (one poll
  /// each), then retransmit whatever is overdue.
  void pump(double now) {
    mp::RawMessage raw;
    while (comm_->recv_raw_timed(mp::kAnySource, mp::kAnyTag, 0.0, &raw)) {
      demux(std::move(raw));
    }
    retransmit_overdue(now);
  }

  void retransmit_overdue(double now) {
    for (std::size_t i = 0; i < unacked_.size();) {
      Pending& pending = unacked_[i];
      if (now < pending.next_retry_s) {
        ++i;
        continue;
      }
      if (pending.retransmits >= options_.max_retransmits) {
        // Budget spent: the peer is presumed dead. Stay silent — the
        // engine's liveness machinery (heartbeat timeouts, speculation)
        // owns that diagnosis, and pure-collective callers surface it
        // as a recv timeout.
        stats_.abandoned += 1;
        unacked_.erase(unacked_.begin() +
                       static_cast<std::ptrdiff_t>(i));
        continue;
      }
      pending.retransmits += 1;
      stats_.retransmits += 1;
      pending.backoff_s = std::min(pending.backoff_s *
                                       options_.backoff_factor,
                                   options_.max_backoff_s);
      pending.next_retry_s = now + pending.backoff_s + jitter();
      comm_->send_raw(pending.dest, pending.tag, pending.type_hash,
                      pending.envelope);
      ++i;
    }
  }

  void demux(mp::RawMessage raw) {
    if (raw.tag == detail::kReliableAckTag) {
      const detail::AckRecord ack =
          mp::Codec<detail::AckRecord>::decode(raw.payload);
      stats_.acks_received += 1;
      for (std::size_t i = 0; i < unacked_.size(); ++i) {
        if (unacked_[i].dest == raw.source && unacked_[i].seq == ack.seq) {
          unacked_.erase(unacked_.begin() +
                         static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      return;
    }
    if (raw.payload.size() < detail::kEnvelopeBytes) {
      throw mp::MpError(
          "ReliableComm: received an unenveloped message — every rank of a "
          "world must wrap its endpoint in ReliableComm");
    }
    std::uint64_t seq = 0;
    std::uint64_t flags = 0;
    std::memcpy(&seq, raw.payload.data(), sizeof(seq));
    std::memcpy(&flags, raw.payload.data() + sizeof(seq), sizeof(flags));
    raw.payload = raw.payload.slice(
        detail::kEnvelopeBytes, raw.payload.size() - detail::kEnvelopeBytes);
    if (seq == 0) {
      delivered_.push_back(std::move(raw));  // fire-and-forget
      return;
    }
    // Ack every sequenced arrival, duplicates included: a duplicate
    // usually means our previous ack (or the original send) was lost.
    if ((flags & detail::kFlagNeedsAck) != 0) {
      detail::AckRecord ack;
      ack.seq = seq;
      stats_.acks_sent += 1;
      comm_->send_raw(raw.source, detail::kReliableAckTag,
                      mp::type_hash_of<detail::AckRecord>(),
                      mp::Codec<detail::AckRecord>::encode(ack));
    }
    RecvLink& link = recv_links_[raw.source];
    if (seq < link.next_expected || link.stash.count(seq) != 0) {
      stats_.duplicates_dropped += 1;
      return;
    }
    if (seq != link.next_expected) {
      stats_.out_of_order_stashed += 1;
      link.stash.emplace(seq, std::move(raw));
      return;
    }
    delivered_.push_back(std::move(raw));
    link.next_expected += 1;
    auto it = link.stash.begin();
    while (it != link.stash.end() && it->first == link.next_expected) {
      delivered_.push_back(std::move(it->second));
      it = link.stash.erase(it);
      link.next_expected += 1;
    }
  }

  bool take_delivered(int source, int tag, mp::RawMessage* out) {
    for (auto it = delivered_.begin(); it != delivered_.end(); ++it) {
      if ((source == mp::kAnySource || it->source == source) &&
          (tag == mp::kAnyTag || it->tag == tag)) {
        *out = std::move(*it);
        delivered_.erase(it);
        return true;
      }
    }
    return false;
  }

  CommT* comm_;
  ReliabilityOptions options_;
  util::Rng jitter_rng_{1};
  RetryStats stats_;
  std::map<int, std::uint64_t> next_seq_;  // per-dest link sequence
  std::vector<Pending> unacked_;
  std::map<int, RecvLink> recv_links_;     // per-source ordering + dedup
  std::deque<mp::RawMessage> delivered_;   // in-order, awaiting a match
};

/// The reliability wrapper keeps the wrapped transport's clock and
/// charging model.
template <class CommT>
struct TransportTraits<ReliableComm<CommT>> {
  static constexpr rt::TraceClock kClock = TransportTraits<CommT>::kClock;
  static double now(ReliableComm<CommT>& comm) {
    return TransportTraits<CommT>::now(comm.underlying());
  }
  static void charge_ops(ReliableComm<CommT>& comm, double ops) {
    TransportTraits<CommT>::charge_ops(comm.underlying(), ops);
  }
  static void charge_seconds(ReliableComm<CommT>& comm, double seconds) {
    TransportTraits<CommT>::charge_seconds(comm.underlying(), seconds);
  }
};

/// Whether CommT is already a ReliableComm (so wrappers do not wrap
/// twice).
template <class T>
struct is_reliable_comm : std::false_type {};
template <class C>
struct is_reliable_comm<ReliableComm<C>> : std::true_type {};
template <class T>
inline constexpr bool is_reliable_comm_v = is_reliable_comm<T>::value;

}  // namespace pblpar::cluster
