#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pblpar::mp {

/// Snapshot of one rank's outbound wire traffic (messages sent and
/// payload bytes shipped), surfaced per rank by every transport's
/// wire_stats and in the cluster profile schema. The chaos_* counters
/// record what an armed TransportChaos plan injected on this rank's
/// outbound links; all zero when chaos is off.
struct WireStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_delayed = 0;
  std::uint64_t chaos_reordered = 0;
};

/// Per-link failure model: each probability is rolled independently per
/// message at the mailbox push boundary. The mp transport counterpart of
/// rt::ChaosPlan — same seeded-xoshiro discipline, so a plan replays
/// bit-identically on the Sim world and statistically identically on the
/// host world.
struct LinkChaos {
  /// Probability the message silently disappears (never pushed).
  double drop = 0.0;

  /// Probability the message is pushed twice (wire-level ghost copy; the
  /// duplicate is not charged to the sender's transfer budget on Sim).
  double duplicate = 0.0;

  /// Probability the message is held back and released only after the
  /// *next* message on the same link is pushed — a one-deep reorder, the
  /// minimal violation of per-link FIFO. A held message with no
  /// successor behaves like a drop until more traffic flows.
  double reorder = 0.0;

  /// Probability the message is delayed by uniform(0, delay_s) before
  /// delivery: the host sender sleeps, the Sim arrival time shifts.
  double delay_probability = 0.0;
  double delay_s = 0.0;

  bool empty() const {
    return drop <= 0.0 && duplicate <= 0.0 && reorder <= 0.0 &&
           delay_probability <= 0.0;
  }
};

/// Scopes a LinkChaos to a (source, dest) pair; -1 is a wildcard. The
/// first matching rule wins, falling back to TransportChaos::all.
struct ChaosLinkRule {
  int source = -1;
  int dest = -1;
  LinkChaos link;
};

/// What chaos decided for one message: rolled from the link's seeded
/// stream by detail::draw_chaos, applied by the transport that owns the
/// push (host mailbox or Sim inbox).
struct ChaosDecision {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  double delay_s = 0.0;  // 0 = no delay
};

/// Seeded drop/delay/duplicate/reorder plan for a whole world. Injected
/// at the Mailbox push boundary of mp::World and the inbox push of
/// SimWorld; per-rank injection counters surface in Comm::wire_stats.
/// An empty plan (the default) is never consulted — the unarmed send
/// path is untouched.
struct TransportChaos {
  /// Default model for every link.
  LinkChaos all;

  /// Per-link overrides; first match wins (source/dest of -1 match any).
  std::vector<ChaosLinkRule> links;

  /// Seed for the per-link xoshiro streams (each link (s, d) gets an
  /// independent stream derived from this, so adding traffic on one
  /// link never perturbs another link's draws).
  std::uint64_t seed = 1;

  bool armed() const {
    if (!all.empty()) {
      return true;
    }
    for (const ChaosLinkRule& rule : links) {
      if (!rule.link.empty()) {
        return true;
      }
    }
    return false;
  }

  /// The model governing messages from `source` to `dest`.
  const LinkChaos& link_for(int source, int dest) const {
    for (const ChaosLinkRule& rule : links) {
      if ((rule.source < 0 || rule.source == source) &&
          (rule.dest < 0 || rule.dest == dest)) {
        return rule.link;
      }
    }
    return all;
  }

  /// Fail loudly on a degenerate plan: probabilities must be finite and
  /// in [0, 1], drop strictly below 1 (a link that drops everything is a
  /// severed cable, not chaos), delays finite and non-negative, and a
  /// positive delay probability needs a positive delay.
  void validate() const;
};

namespace detail {

/// Per-rank outbound counters, indexed by the *sending* rank so the
/// relaxed increments never contend across ranks.
struct alignas(64) WireCounters {
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> chaos_dropped{0};
  std::atomic<std::uint64_t> chaos_duplicated{0};
  std::atomic<std::uint64_t> chaos_delayed{0};
  std::atomic<std::uint64_t> chaos_reordered{0};

  void count_send(std::size_t payload_bytes) {
    messages.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
  }

  WireStats snapshot() const {
    WireStats stats;
    stats.messages = messages.load(std::memory_order_relaxed);
    stats.bytes = bytes.load(std::memory_order_relaxed);
    stats.chaos_dropped = chaos_dropped.load(std::memory_order_relaxed);
    stats.chaos_duplicated = chaos_duplicated.load(std::memory_order_relaxed);
    stats.chaos_delayed = chaos_delayed.load(std::memory_order_relaxed);
    stats.chaos_reordered = chaos_reordered.load(std::memory_order_relaxed);
    return stats;
  }
};

/// Roll every armed die for one message. The number of draws per message
/// depends only on the link's configuration (dropped messages still roll
/// the remaining dice), so injection decisions for the Nth message on a
/// link are a pure function of (plan, N) — the property the Sim replay
/// tests pin down.
inline ChaosDecision draw_chaos(const LinkChaos& link, util::Rng& rng) {
  ChaosDecision decision;
  if (link.drop > 0.0) {
    decision.drop = rng.bernoulli(link.drop);
  }
  if (link.duplicate > 0.0) {
    decision.duplicate = rng.bernoulli(link.duplicate);
  }
  if (link.reorder > 0.0) {
    decision.reorder = rng.bernoulli(link.reorder);
  }
  if (link.delay_probability > 0.0 && rng.bernoulli(link.delay_probability)) {
    decision.delay_s = rng.uniform(0.0, link.delay_s);
  }
  return decision;
}

/// Independent stream for link (source, dest) of a world of `size` ranks.
inline util::Rng chaos_link_rng(std::uint64_t seed, int size, int source,
                                int dest) {
  util::SplitMix64 mix(seed ^ 0xC4A05ADB0D7F3D5FULL);
  const std::uint64_t base = mix.next();
  const std::uint64_t index =
      static_cast<std::uint64_t>(source) * static_cast<std::uint64_t>(size) +
      static_cast<std::uint64_t>(dest);
  util::SplitMix64 link_mix(base + 0x9E3779B97F4A7C15ULL * (index + 1));
  return util::Rng(link_mix.next());
}

/// Chaos state of one directed link (source, dest): its seeded stream and
/// the hold-one-back reorder slot. `Msg` is what the transport queues: a
/// held Sim message keeps its original arrival time, so releasing it after
/// later traffic lands it out of order. The link (s, d) is only ever
/// touched by sending rank s, so no synchronization is needed.
template <class Msg>
struct ChaosLink {
  const LinkChaos* model = nullptr;
  util::Rng rng{1};
  std::optional<Msg> held;
};

/// Every directed link of one world, row-major by source. Stays empty
/// (every lookup null) when the plan is unarmed, so a clean wire pays one
/// branch per send.
template <class Msg>
class ChaosLinks {
 public:
  /// Validate `plan` and arm each link it models. `plan` must outlive the
  /// table (links point at its LinkChaos entries).
  void arm(const TransportChaos& plan, int size) {
    if (!plan.armed()) {
      return;
    }
    plan.validate();
    size_ = static_cast<std::size_t>(size);
    links_.resize(size_ * size_);
    for (int s = 0; s < size; ++s) {
      for (int d = 0; d < size; ++d) {
        const LinkChaos& model = plan.link_for(s, d);
        if (!model.empty()) {
          ChaosLink<Msg>& link = links_[index(s, d)];
          link.model = &model;
          link.rng = chaos_link_rng(plan.seed, size, s, d);
        }
      }
    }
  }

  /// The armed link (source, dest), or null when that link is clean.
  ChaosLink<Msg>* find(int source, int dest) {
    if (links_.empty()) {
      return nullptr;
    }
    ChaosLink<Msg>& link = links_[index(source, dest)];
    return link.model != nullptr ? &link : nullptr;
  }

 private:
  std::size_t index(int source, int dest) const {
    return static_cast<std::size_t>(source) * size_ +
           static_cast<std::size_t>(dest);
  }

  std::size_t size_ = 0;
  std::vector<ChaosLink<Msg>> links_;
};

/// Put one outbound message on the wire through its link's chaos (a null
/// link is clean: the message is delivered as is). Rolls the link's dice,
/// counts each injection on the sender's `wire`, applies a delay with
/// `delay(message, seconds)` — the host sleeps, Sim shifts the arrival —
/// and hands what goes out now to `deliver`, in order: the message, its
/// ghost duplicate, then a previously held message. A dropped or
/// newly held message delivers nothing.
template <class Msg, class Delay, class Deliver>
void send_through_chaos(ChaosLink<Msg>* link, WireCounters& wire,
                        Msg&& message, Delay&& delay, Deliver&& deliver) {
  if (link == nullptr) {
    deliver(std::move(message));
    return;
  }
  const ChaosDecision decision = draw_chaos(*link->model, link->rng);
  if (decision.drop) {
    wire.chaos_dropped.fetch_add(1, std::memory_order_relaxed);
    return;  // a held message, if any, stays held for the next send
  }
  if (decision.reorder && !link->held.has_value()) {
    // Hold this message back; it is released after the *next* message on
    // this link goes out, swapping their delivery order.
    wire.chaos_reordered.fetch_add(1, std::memory_order_relaxed);
    link->held = std::move(message);
    return;
  }
  if (decision.delay_s > 0.0) {
    wire.chaos_delayed.fetch_add(1, std::memory_order_relaxed);
    delay(message, decision.delay_s);
  }
  if (decision.duplicate) {
    wire.chaos_duplicated.fetch_add(1, std::memory_order_relaxed);
    Msg ghost = message;  // refcounted payload share, no byte copy
    deliver(std::move(message));
    deliver(std::move(ghost));
  } else {
    deliver(std::move(message));
  }
  if (link->held.has_value()) {
    deliver(std::move(*link->held));
    link->held.reset();
  }
}

inline void validate_link(const LinkChaos& link, const char* scope) {
  const auto probability_ok = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  util::require(probability_ok(link.drop),
                std::string("TransportChaos::validate: ") + scope +
                    " drop probability must be finite and in [0, 1]");
  util::require(link.drop < 1.0,
                std::string("TransportChaos::validate: ") + scope +
                    " drop probability of 1 severs the link entirely; "
                    "model a dead peer with cluster::CrashFault instead");
  util::require(probability_ok(link.duplicate),
                std::string("TransportChaos::validate: ") + scope +
                    " duplicate probability must be finite and in [0, 1]");
  util::require(probability_ok(link.reorder),
                std::string("TransportChaos::validate: ") + scope +
                    " reorder probability must be finite and in [0, 1]");
  util::require(probability_ok(link.delay_probability),
                std::string("TransportChaos::validate: ") + scope +
                    " delay probability must be finite and in [0, 1]");
  util::require(std::isfinite(link.delay_s) && link.delay_s >= 0.0,
                std::string("TransportChaos::validate: ") + scope +
                    " delay must be finite and non-negative");
  util::require(link.delay_probability <= 0.0 || link.delay_s > 0.0,
                std::string("TransportChaos::validate: ") + scope +
                    " delay probability is armed but the delay is zero");
}

}  // namespace detail

inline void TransportChaos::validate() const {
  detail::validate_link(all, "all-links");
  for (const ChaosLinkRule& rule : links) {
    util::require(rule.source >= -1,
                  "TransportChaos::validate: link rule source must be a rank "
                  "or -1 (any)");
    util::require(rule.dest >= -1,
                  "TransportChaos::validate: link rule dest must be a rank "
                  "or -1 (any)");
    detail::validate_link(rule.link, "per-link");
  }
}

}  // namespace pblpar::mp
