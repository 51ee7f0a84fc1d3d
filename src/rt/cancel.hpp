#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/team.hpp"
#include "util/rng.hpp"

namespace pblpar::rt {

struct RunProfile;

namespace detail {

/// Shared flag behind a CancelSource/CancelToken pair. Heap-allocated and
/// reference-counted so tokens stay valid after the source is gone (a
/// destroyed source simply can never request cancellation any more).
struct CancelState {
  std::atomic<bool> requested{false};
};

/// Internal unwinding signal thrown at a chunk-claim boundary once the
/// region's governor fired. Caught by the backends and converted into
/// rt::Cancelled at the region join; never escapes to users.
struct CancelSignal {};

}  // namespace detail

/// Consumer end of a cancellation request: copied into ParallelConfig via
/// .cancellable() and polled by every team member at chunk-claim
/// boundaries. Default-constructed tokens are inert (never cancelled).
class CancelToken {
 public:
  CancelToken() = default;

  /// Whether this token is connected to a CancelSource at all.
  bool valid() const { return state_ != nullptr; }

  bool cancel_requested() const {
    return state_ != nullptr &&
           state_->requested.load(std::memory_order_acquire);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const detail::CancelState> state_;
};

/// Owner end of a cancellation request. cancel() is thread-safe and may be
/// called from outside the region (that is the point: a watchdog, a UI
/// thread, a signal handler's deferred path). Cancellation is cooperative
/// and sticky — there is no un-cancel.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  void cancel() { state_->requested.store(true, std::memory_order_release); }

  bool cancel_requested() const {
    return state_->requested.load(std::memory_order_acquire);
  }

  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

/// What fired a region's cancellation.
enum class CancelCause {
  Token,     // CancelSource::cancel() was observed
  Deadline,  // the region ran past ParallelConfig::deadline()
};

std::string to_string(CancelCause cause);

/// Thrown by rt::parallel when a region was cancelled (token or deadline).
/// Carries per-thread completed-iteration counts — every iteration either
/// ran to completion or never started, because members only stop at
/// chunk-claim boundaries — so callers can salvage partial progress. When
/// the region was traced, the profile of the cancelled region (including
/// its CancelEvents) rides along.
class Cancelled : public std::runtime_error {
 public:
  Cancelled(CancelCause cause, std::vector<std::int64_t> completed,
            std::shared_ptr<const RunProfile> profile = nullptr);

  CancelCause cause() const noexcept { return cause_; }

  /// Worksharing-loop iterations each team member completed before it
  /// stopped, indexed by tid.
  const std::vector<std::int64_t>& completed_iterations() const noexcept {
    return completed_;
  }

  std::int64_t total_completed() const noexcept;

  /// Trace of the cancelled region; null unless record_trace was set.
  const std::shared_ptr<const RunProfile>& profile() const noexcept {
    return profile_;
  }

 private:
  CancelCause cause_;
  std::vector<std::int64_t> completed_;
  std::shared_ptr<const RunProfile> profile_;
};

/// Host-side counterpart of cluster::FaultPlan: seeded fault injection at
/// chunk-claim boundaries. Empty plan (the default) = no injection and no
/// overhead — the loop drivers skip all polling when nothing is armed.
/// Every draw comes from one deterministic xoshiro stream per team member
/// (derived from `seed` and the tid), so a plan replays bit-identically on
/// the Sim backend and statistically identically on the host.
struct ChaosPlan {
  /// Probability, per chunk claim, of stalling the claiming member for
  /// `delay_s` before it runs the chunk.
  double delay_probability = 0.0;
  double delay_s = 0.0;

  /// Probability, per chunk claim, of throwing ChaosInjected out of the
  /// member's body — exercising the same abort-and-drain path a real
  /// exception in user code takes.
  double throw_probability = 0.0;

  std::uint64_t seed = 1;

  bool empty() const {
    return delay_probability <= 0.0 && throw_probability <= 0.0;
  }

  /// Fail loudly on a malformed plan: probabilities must be in [0, 1] and
  /// delays finite and non-negative.
  void validate() const;
};

/// The exception a ChaosPlan's throw injection raises from a member body.
/// Deliberately a plain runtime_error subtype: the runtime must treat it
/// exactly like an exception thrown by user code.
class ChaosInjected : public std::runtime_error {
 public:
  ChaosInjected(int tid, std::uint64_t nth_claim);

  int tid() const noexcept { return tid_; }
  std::uint64_t nth_claim() const noexcept { return nth_claim_; }

 private:
  int tid_;
  std::uint64_t nth_claim_;
};

/// Per-region cancellation + chaos state shared by all team members.
/// Created by the backends only when something is armed (token, deadline
/// or chaos plan); TeamContext::governor() returns nullptr otherwise and
/// the loop drivers skip every poll — the unarmed hot path is untouched.
class RegionGovernor {
 public:
  /// Governor for a region, or nullptr when neither cancellation nor
  /// chaos is armed. `deadline_s` is seconds since region start on the
  /// backend's clock (host steady clock / sim virtual time); 0 = none.
  static std::unique_ptr<RegionGovernor> for_region(const CancelToken& token,
                                                    double deadline_s,
                                                    const ChaosPlan& chaos,
                                                    int num_threads);

  /// Poll at a chunk-claim boundary. Checks (in order) a prior fire by a
  /// peer, the token, and the deadline — any hit records a CancelEvent
  /// and throws detail::CancelSignal. Then rolls the chaos plan's dice:
  /// a throw draw records an InjectEvent and throws ChaosInjected; a
  /// delay draw records an InjectEvent and stalls via
  /// TeamContext::inject_delay.
  void at_claim(TeamContext& tc, int tid);

  /// Member `tid` finished a chunk of `count` iterations.
  void add_completed(int tid, std::int64_t count) {
    slots_[static_cast<std::size_t>(tid)].completed += count;
  }

  bool fired() const { return stop_.load(std::memory_order_acquire); }

  /// Only meaningful after fired(): what fired, and when on the backend
  /// clock.
  CancelCause cause() const { return cause_; }
  double fired_at_s() const { return fired_at_s_; }

  /// Per-tid completed-iteration counts. Only valid after every member of
  /// the region has stopped (the backends read it at the region join).
  std::vector<std::int64_t> completed_counts() const;

  /// Backend hook run once by the member that fires cancellation, before
  /// it unwinds — the host backend aborts the team barrier here so parked
  /// members drain; the Sim backend leaves it unset (the machine's own
  /// abort teardown wakes every virtual thread).
  std::function<void()> abort_team;

 private:
  RegionGovernor(const CancelToken& token, double deadline_s,
                 const ChaosPlan& chaos, int num_threads);

  /// First caller wins; a peer that loses waits until the winner has
  /// published cause_ (stop_ set), then drains.
  void fire(CancelCause cause, double now);

  [[noreturn]] void throw_cancelled(TeamContext& tc, int tid);

  struct alignas(kCacheLineBytes) MemberSlot {
    std::int64_t completed = 0;    // owner-written; read after the join
    std::uint64_t claims = 0;      // chunk claims this member made
    util::Rng rng{1};              // this member's chaos stream
    bool cancel_recorded = false;  // one CancelEvent per member at most
  };

  CancelToken token_;
  double deadline_s_;
  ChaosPlan chaos_;
  bool chaos_armed_;
  std::vector<MemberSlot> slots_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> fire_claimed_{false};
  /// Written once by the fire() winner before stop_ is released; read by
  /// members after an acquire load of stop_ and by the backends after the
  /// region join.
  CancelCause cause_ = CancelCause::Token;
  double fired_at_s_ = 0.0;
};

}  // namespace pblpar::rt
