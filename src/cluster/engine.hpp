#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fault.hpp"
#include "cluster/reliable.hpp"
#include "mp/comm.hpp"
#include "mp/sim_world.hpp"
#include "rt/cancel.hpp"
#include "rt/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace pblpar::cluster {

/// The master gave up on the run: every worker died with tasks
/// outstanding, or a task exhausted its attempt budget. Carries enough
/// detail to identify the tasks involved.
class ClusterError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A distributed job was cancelled (job deadline or CancelToken) before
/// it completed; thrown by drivers whose output would otherwise be
/// partial (the distributed MapReduce driver throws this on every rank,
/// mirroring how mapreduce::Job::deadline(Abort) surfaces rt::Cancelled).
class ClusterCancelled : public ClusterError {
 public:
  using ClusterError::ClusterError;
};

/// A serialized snapshot of the master's completed-task state: which
/// tasks are done and their result bytes, encoded with the positional
/// util wire format ([magic][version][task_count][done_count] then
/// per completed task [task_id][result blob]). Produced periodically by
/// a master with checkpointing armed; feed it back through
/// ClusterOptions::restart_from (or restart_from_checkpoint) to resume a
/// crashed master without re-running completed tasks.
struct ClusterCheckpoint {
  std::vector<std::byte> bytes;

  bool empty() const { return bytes.empty(); }

  /// Decoded header fields (0 on an empty checkpoint).
  int task_count() const {
    if (bytes.empty()) {
      return 0;
    }
    util::Reader reader(bytes);
    reader.u32();  // magic, validated on restore
    reader.u32();  // version
    return static_cast<int>(reader.u32());
  }

  int completed_tasks() const {
    if (bytes.empty()) {
      return 0;
    }
    util::Reader reader(bytes);
    reader.u32();
    reader.u32();
    reader.u32();
    return static_cast<int>(reader.u32());
  }
};

namespace detail {
constexpr std::uint32_t kCheckpointMagic = 0x5042434BU;  // "PBCK"
constexpr std::uint32_t kCheckpointVersion = 1;
}  // namespace detail

/// Tuning knobs of one engine run. Times are seconds on the transport's
/// clock (virtual on SimComm, steady on Comm).
struct ClusterOptions {
  /// A busy worker emits a heartbeat at most this often (paced by
  /// TaskContext::progress calls).
  double heartbeat_interval_s = 0.02;

  /// A worker the master expects to hear from (busy, or between Done and
  /// its next Request) is declared dead after this much silence. Its
  /// in-flight task is re-queued. Parked workers are exempt (they are
  /// silent by protocol).
  double heartbeat_timeout_s = 0.25;

  /// Hard per-attempt deadline: a live attempt older than this is
  /// abandoned and its task re-queued even if heartbeats still arrive.
  /// 0 disables.
  double task_timeout_s = 0.0;

  /// An in-flight task becomes a speculation candidate for idle workers
  /// once its oldest live attempt is at least this old. 0 = immediately
  /// (an idle worker never sits parked while any task is in flight).
  double speculation_age_s = 0.0;

  /// Cap on concurrent live attempts of one task (primary + backups).
  int max_live_attempts = 2;

  /// Total attempts (including failed ones) before the master declares
  /// the task poisonous and throws ClusterError.
  int max_attempts_per_task = 6;

  /// Master poll period; 0 derives heartbeat_timeout_s / 4.
  double tick_s = 0.0;

  /// Job-level deadline (engine-relative seconds). Once the master's
  /// clock passes it with tasks outstanding, the run is cancelled: the
  /// queue is dropped, busy workers receive a Cancel and stop at their
  /// next progress() call, parked workers are shut down. Results of
  /// tasks that finished in time are kept (see
  /// ClusterRunResult::job_cancelled / incomplete_tasks). 0 disables.
  /// Workers only poll for Cancel when this is set, so runs without a
  /// deadline are byte-identical to earlier engine versions on Sim.
  double job_deadline_s = 0.0;

  /// Token-based cancel channel, polled by the master alongside the
  /// deadline (event kind "job-cancel" instead of "job-deadline"); the
  /// drain protocol is shared. Fire it from a task body, a watchdog, or
  /// another thread via rt::CancelSource::cancel(). An invalid
  /// (default) token never cancels, and workers only arm Cancel polling
  /// when the token is valid or a deadline is set.
  rt::CancelToken cancel;

  /// Ack/retry/dedup sublayer tuning; reliability.enabled wraps the
  /// engine's transport in ReliableComm so task dispatch, results and
  /// heartbeats survive an armed mp::TransportChaos plan.
  ReliabilityOptions reliability;

  /// Master checkpointing: serialize the completed-task state every
  /// this-many transport-clock seconds (plus once at wind-down) and
  /// hand it to `on_checkpoint`. 0 disables; armed (on_checkpoint set)
  /// requires a positive finite interval.
  double checkpoint_interval_s = 0.0;
  std::function<void(const ClusterCheckpoint&)> on_checkpoint;

  /// Resume from a previous run's checkpoint: tasks recorded done are
  /// restored (result bytes included) and never re-queued; the event
  /// log records one "restore" event per restored task. The checkpoint
  /// must describe the same task list (task_count is verified). Null =
  /// fresh run.
  const ClusterCheckpoint* restart_from = nullptr;

  double effective_tick_s() const {
    return tick_s > 0.0 ? tick_s : heartbeat_timeout_s / 4.0;
  }

  /// Loud boundary validation, the ClusterOptions mirror of
  /// FaultPlan::validate(): every timing knob must be finite (NaN
  /// compares false against everything, so an unchecked NaN deadline
  /// would silently never fire), intervals ordered, attempt budgets
  /// positive. Checked on every rank by run_cluster_tasks.
  void validate() const {
    util::require(std::isfinite(heartbeat_interval_s) &&
                      std::isfinite(heartbeat_timeout_s) &&
                      heartbeat_interval_s > 0.0 &&
                      heartbeat_timeout_s > heartbeat_interval_s,
                  "ClusterOptions: need 0 < heartbeat_interval_s < "
                  "heartbeat_timeout_s, both finite");
    util::require(std::isfinite(task_timeout_s) && task_timeout_s >= 0.0,
                  "ClusterOptions: task_timeout_s must be finite and >= 0");
    util::require(
        std::isfinite(speculation_age_s) && speculation_age_s >= 0.0,
        "ClusterOptions: speculation_age_s must be finite and >= 0");
    util::require(std::isfinite(tick_s) && tick_s >= 0.0,
                  "ClusterOptions: tick_s must be finite and >= 0");
    util::require(std::isfinite(job_deadline_s) && job_deadline_s >= 0.0,
                  "ClusterOptions: job_deadline_s must be finite and >= 0 "
                  "(0 = no deadline)");
    util::require(max_live_attempts >= 1 && max_attempts_per_task >= 1,
                  "ClusterOptions: attempt limits must be >= 1");
    reliability.validate();
    util::require(std::isfinite(checkpoint_interval_s) &&
                      checkpoint_interval_s >= 0.0,
                  "ClusterOptions: checkpoint_interval_s must be finite and "
                  ">= 0");
    util::require(on_checkpoint == nullptr || checkpoint_interval_s > 0.0,
                  "ClusterOptions: checkpointing is armed (on_checkpoint "
                  "set) but checkpoint_interval_s is <= 0");
    if (restart_from != nullptr && !restart_from->empty()) {
      util::require(restart_from->bytes.size() >= 4 * sizeof(std::uint32_t),
                    "ClusterOptions: restart_from checkpoint is truncated");
      util::Reader reader(restart_from->bytes);
      util::require(reader.u32() == detail::kCheckpointMagic,
                    "ClusterOptions: restart_from is not a cluster "
                    "checkpoint (bad magic)");
      util::require(reader.u32() == detail::kCheckpointVersion,
                    "ClusterOptions: restart_from checkpoint has an "
                    "unsupported version");
    }
  }
};

/// One master-side scheduling event, timestamped relative to engine
/// start on the transport clock. Kinds: assign, spec-assign, done,
/// dup-done, heartbeat, lost-result, requeue, task-timeout, worker-dead,
/// worker-back, shutdown, all-done, job-deadline, job-cancel, cancel,
/// cancel-drain, checkpoint (claim = completed-task count), restore.
struct ClusterEvent {
  double t_s = 0.0;
  int worker = -1;
  int task = -1;
  std::uint64_t claim = 0;
  std::string kind;
};

struct ClusterStats {
  int tasks = 0;
  int workers = 0;  // size - 1 (rank 0 is the master)
  int attempts = 0;
  int speculative_attempts = 0;
  int requeues = 0;
  int lost_results = 0;
  int dead_workers = 0;
  int resurrections = 0;
  int heartbeats = 0;
  /// Tasks still incomplete when the engine wound down after a
  /// job-deadline cancellation (0 on uncancelled runs).
  int cancelled_tasks = 0;
  /// Checkpoints the master serialized (including the wind-down one).
  int checkpoints = 0;
  /// Tasks restored from ClusterOptions::restart_from instead of run.
  int restored_tasks = 0;
  /// When the last task result arrived (engine-relative seconds).
  double completion_s = 0.0;
  /// When the engine fully wound down (stragglers drained, shutdowns
  /// sent); >= completion_s.
  double makespan_s = 0.0;
};

/// Full observability record of one engine run, the cluster analogue of
/// rt::RunProfile: counters, the master's event log, and a per-worker
/// schedule rendered through the PR-1 trace layer (one lane per rank,
/// one chunk per task attempt).
struct ClusterProfile {
  ClusterStats stats;
  std::vector<ClusterEvent> events;
  std::vector<int> dead_workers;

  /// Outbound wire traffic per rank (messages sent / payload bytes
  /// shipped), snapshotted from the transport's counters when the
  /// master wound down. Cumulative over the world, so it includes any
  /// traffic before the engine ran.
  std::vector<std::uint64_t> wire_messages;
  std::vector<std::uint64_t> wire_bytes;

  /// Master-side reliability counters (retransmits, dedup hits, ...);
  /// all zero when ClusterOptions::reliability is off. Deterministic on
  /// the Sim transport.
  RetryStats retry;

  /// Per-worker attempt timeline: tid = rank, chunk [task, task+1),
  /// claim_order = the attempt's claim id. Render with
  /// schedule->timeline_chart(0). Null when the engine ran without a
  /// profile request.
  std::shared_ptr<const rt::RunProfile> schedule;

  /// One line per event, fixed formatting — byte-identical across runs
  /// on the Sim transport, which is how fault-injection determinism is
  /// asserted in tests.
  std::string event_log() const;

  /// One-paragraph human summary of the run.
  std::string summary() const;

  /// Machine-readable export.
  std::string to_json() const;
};

/// Handle a task body uses to interact with the engine while running:
/// pace heartbeats, charge modelled work, learn its identity. progress()
/// is also the injection point for crash faults, so task bodies should
/// call it between work slices.
class TaskContext {
 public:
  TaskContext(int rank, int task_id, std::function<void(double)> charge_fn,
              std::function<void()> progress_fn)
      : rank_(rank),
        task_id_(task_id),
        charge_fn_(std::move(charge_fn)),
        progress_fn_(std::move(progress_fn)) {}

  int rank() const { return rank_; }
  int task_id() const { return task_id_; }

  /// Charge `ops` abstract operations of modelled work (Sim transport;
  /// no-op on the host, where tasks do real work). Straggler faults
  /// scale this.
  void charge(double ops) {
    if (charge_fn_) {
      charge_fn_(ops);
    }
  }

  /// Heartbeat pacing point; call between work slices.
  void progress() {
    if (progress_fn_) {
      progress_fn_();
    }
  }

 private:
  int rank_;
  int task_id_;
  std::function<void(double)> charge_fn_;
  std::function<void()> progress_fn_;
};

/// A task body: consume the task's payload (a zero-copy view into the
/// assignment message, valid for the duration of the call), return its
/// result bytes. Runs on worker ranks (and inline on the master when
/// size == 1).
using TaskFn = std::function<std::vector<std::byte>(
    TaskContext&, int task_id, mp::ByteView payload)>;

/// What run_cluster_tasks returns on each rank.
struct ClusterRunResult {
  /// Per-task result bytes, indexed by task id; each entry shares the
  /// Done message's storage (no result copy on the master). Master only.
  std::vector<mp::Buffer> results;
  /// Ranks the master declared dead and never heard from again.
  /// Master only.
  std::vector<int> dead_workers;
  bool is_master = false;
  /// This rank hit an injected crash fault (worker ranks only).
  bool crashed = false;
  /// The run was cancelled by ClusterOptions::job_deadline_s. On the
  /// master: the deadline fired with tasks outstanding. On a worker:
  /// this rank abandoned an in-flight attempt after receiving Cancel.
  bool job_cancelled = false;
  /// Ids of tasks without a result when a cancelled run wound down,
  /// ascending. Master only; empty on uncancelled runs.
  std::vector<int> incomplete_tasks;
};

namespace detail {

/// Engine protocol tags, far above any user tag and distinct from the
/// negative internal collective tags.
constexpr int kTagRequest = (1 << 20) + 0;    // worker -> master, empty
constexpr int kTagDone = (1 << 20) + 1;       // worker -> master
constexpr int kTagHeartbeat = (1 << 20) + 2;  // worker -> master
constexpr int kTagAssign = (1 << 20) + 3;     // master -> worker
constexpr int kTagShutdown = (1 << 20) + 4;   // master -> worker, empty
constexpr int kTagCancel = (1 << 20) + 5;     // master -> worker, empty

inline std::size_t engine_payload_hash() {
  return mp::type_hash_of<std::vector<std::byte>>();
}

/// Internal unwinding signal for an injected worker crash. Caught by
/// run_worker; never escapes the engine.
struct WorkerCrashSignal {};

/// Internal unwinding signal for a cooperative job cancellation: the
/// worker saw the master's Cancel at a progress() poll and abandons the
/// attempt at that boundary. Caught by run_worker; never escapes.
struct WorkerCancelSignal {};

template <class CommT>
void send_request(CommT& comm) {
  comm.send_raw(0, kTagRequest, engine_payload_hash(), {});
}

template <class CommT>
void send_heartbeat(CommT& comm, int task_id, std::uint64_t claim) {
  util::Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  // Heartbeats are periodic liveness hints: a lost one is replaced by
  // the next, so on a reliable transport they ride fire-and-forget
  // rather than consuming ack/retransmit budget.
  if constexpr (requires {
                  comm.send_raw_fire_and_forget(0, kTagHeartbeat,
                                                engine_payload_hash(),
                                                writer.take());
                }) {
    comm.send_raw_fire_and_forget(0, kTagHeartbeat, engine_payload_hash(),
                                  writer.take());
  } else {
    comm.send_raw(0, kTagHeartbeat, engine_payload_hash(), writer.take());
  }
}

template <class CommT>
void send_done(CommT& comm, int task_id, std::uint64_t claim,
               const std::vector<std::byte>& result) {
  util::Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  writer.blob(result);
  comm.send_raw(0, kTagDone, engine_payload_hash(), writer.take());
}

template <class CommT>
void send_assign(CommT& comm, int worker, int task_id, std::uint64_t claim,
                 const std::vector<std::byte>& payload) {
  util::Writer writer;
  writer.i32(task_id);
  writer.u64(claim);
  writer.blob(payload);
  comm.send_raw(worker, kTagAssign, engine_payload_hash(), writer.take());
}

template <class CommT>
void send_shutdown(CommT& comm, int worker) {
  comm.send_raw(worker, kTagShutdown, engine_payload_hash(), {});
}

template <class CommT>
void send_cancel(CommT& comm, int worker) {
  comm.send_raw(worker, kTagCancel, engine_payload_hash(), {});
}

struct TaskHeader {
  int task_id = -1;
  std::uint64_t claim = 0;
};

inline TaskHeader parse_header(util::Reader& reader) {
  TaskHeader header;
  header.task_id = reader.i32();
  header.claim = reader.u64();
  return header;
}

/// Master-side state machine. Pull-based: workers Request, the master
/// replies Assign (possibly much later) or Shutdown; Done and Heartbeat
/// flow back. A Request from a worker the master believes busy means the
/// worker's Done was lost — the task is re-queued. Silence past the
/// heartbeat timeout means the worker is dead.
template <class CommT>
class Master {
 public:
  using Traits = TransportTraits<CommT>;

  Master(CommT& comm, const std::vector<std::vector<std::byte>>& tasks,
         const ClusterOptions& options, ClusterProfile* profile)
      : comm_(comm), tasks_(tasks), options_(options), profile_(profile) {
    options.validate();
  }

  ClusterRunResult run(const TaskFn& task_fn) {
    const int n = static_cast<int>(tasks_.size());
    const int size = comm_.size();
    start_s_ = Traits::now(comm_);
    results_.assign(static_cast<std::size_t>(n), {});
    task_states_.assign(static_cast<std::size_t>(n), TaskState{});
    workers_.assign(static_cast<std::size_t>(size), WorkerState{});
    remaining_ = n;
    stats_.tasks = n;
    stats_.workers = size - 1;
    if (profile_ != nullptr) {
      recorder_ = std::make_unique<rt::TraceRecorder>(size, Traits::kClock);
      recorder_->register_loop(0, "cluster", n);
    }
    restore_checkpoint();

    if (size == 1) {
      run_serial(task_fn);
    } else {
      for (int t = 0; t < n; ++t) {
        if (!task_states_[static_cast<std::size_t>(t)].done) {
          queue_.push_back(t);
        }
      }
      run_loop();
      // A worker written off as dead may really be alive — a straggler
      // that outlived the whole run. Send it a shutdown too: a crashed
      // worker never reads it, a zombie uses it to leave the protocol
      // and rejoin the SPMD code after the engine.
      for (int w = 1; w < size; ++w) {
        if (workers_[static_cast<std::size_t>(w)].phase == WPhase::Dead) {
          send_shutdown(comm_, w);
        }
      }
    }

    ClusterRunResult result;
    if (cancelled_) {
      // A straggler's Done can still land between the deadline firing
      // and the drain completing, so incompleteness is judged only now.
      for (int t = 0; t < n; ++t) {
        if (!task_states_[static_cast<std::size_t>(t)].done) {
          result.incomplete_tasks.push_back(t);
        }
      }
      stats_.cancelled_tasks =
          static_cast<int>(result.incomplete_tasks.size());
    }
    // Wind-down checkpoint: capture every result that arrived (even on a
    // cancelled run), so a master killed right after this run resumes
    // with nothing lost.
    maybe_checkpoint(now_rel(), /*force=*/true);
    finalize_profile();
    result.results = std::move(results_);
    result.dead_workers = dead_list();
    result.is_master = true;
    result.job_cancelled = cancelled_;
    return result;
  }

 private:
  enum class WPhase {
    Unknown,       // never heard from (exempt from timeouts)
    Parked,        // sent Request, blocked waiting for our reply
    Busy,          // executing an assignment
    Returning,     // sent Done, its next Request is in flight
    Dead,          // timed out; resurrected if it ever speaks again
    ShutdownSent,  // told to exit
  };

  struct Attempt {
    int worker = -1;
    std::uint64_t claim = 0;
    double assigned_s = 0.0;
    bool live = false;
    bool speculative = false;
  };

  struct TaskState {
    std::vector<Attempt> attempts;
    bool done = false;
    bool queued = false;
  };

  struct WorkerState {
    WPhase phase = WPhase::Unknown;
    int task = -1;
    std::uint64_t claim = 0;
    double last_heard_s = 0.0;
  };

  double now_rel() { return Traits::now(comm_) - start_s_; }

  void event(double t_s, int worker, int task, std::uint64_t claim,
             const char* kind) {
    if (profile_ != nullptr) {
      profile_->events.push_back(ClusterEvent{t_s, worker, task, claim, kind});
    }
  }

  /// Resume from ClusterOptions::restart_from: mark recorded tasks done
  /// (copying their result bytes out of the checkpoint) so they are
  /// never queued. One "restore" event per task, at t=0.
  void restore_checkpoint() {
    if (options_.restart_from == nullptr || options_.restart_from->empty()) {
      return;
    }
    util::Reader reader(options_.restart_from->bytes);
    util::require(reader.u32() == kCheckpointMagic,
                  "cluster master: restart_from is not a checkpoint");
    util::require(reader.u32() == kCheckpointVersion,
                  "cluster master: restart_from checkpoint version mismatch");
    const int n = static_cast<int>(reader.u32());
    util::require(n == static_cast<int>(tasks_.size()),
                  "cluster master: restart_from checkpoint describes a "
                  "different task list (task_count mismatch)");
    const int done = static_cast<int>(reader.u32());
    for (int i = 0; i < done; ++i) {
      const int task = reader.i32();
      const mp::ByteView blob = reader.blob_view();
      util::require(task >= 0 && task < n,
                    "cluster master: restart_from checkpoint has an "
                    "out-of-range task id");
      TaskState& ts = task_states_[static_cast<std::size_t>(task)];
      util::require(!ts.done,
                    "cluster master: restart_from checkpoint records task " +
                        std::to_string(task) + " done twice");
      ts.done = true;
      results_[static_cast<std::size_t>(task)] =
          mp::Buffer::copy_of(blob.data(), blob.size());
      --remaining_;
      ++stats_.restored_tasks;
      event(0.0, -1, task, 0, "restore");
    }
    checkpointed_done_ = done;
  }

  int done_count() const {
    return static_cast<int>(tasks_.size()) - remaining_;
  }

  ClusterCheckpoint make_checkpoint() const {
    util::Writer writer;
    writer.u32(kCheckpointMagic);
    writer.u32(kCheckpointVersion);
    writer.u32(util::wire_length(tasks_.size()));
    writer.u32(static_cast<std::uint32_t>(done_count()));
    for (int t = 0; t < static_cast<int>(tasks_.size()); ++t) {
      const TaskState& ts = task_states_[static_cast<std::size_t>(t)];
      if (!ts.done) {
        continue;
      }
      writer.i32(t);
      const mp::Buffer& result = results_[static_cast<std::size_t>(t)];
      writer.blob(result.view());
    }
    ClusterCheckpoint checkpoint;
    checkpoint.bytes = writer.take();
    return checkpoint;
  }

  /// Serialize completed-task state when the interval elapsed and new
  /// results arrived since the last snapshot (`force` skips both checks
  /// for the wind-down capture — but still never emits an empty
  /// zero-progress checkpoint on an unarmed run).
  void maybe_checkpoint(double now, bool force = false) {
    if (options_.checkpoint_interval_s <= 0.0) {
      return;
    }
    const int done = done_count();
    if (done <= checkpointed_done_) {
      return;  // nothing new to capture
    }
    if (!force && now - last_checkpoint_s_ < options_.checkpoint_interval_s) {
      return;
    }
    last_checkpoint_s_ = now;
    checkpointed_done_ = done;
    ++stats_.checkpoints;
    event(now, -1, -1, static_cast<std::uint64_t>(done), "checkpoint");
    if (options_.on_checkpoint != nullptr) {
      options_.on_checkpoint(make_checkpoint());
    }
  }

  void run_serial(const TaskFn& task_fn) {
    // Single-rank world: the master executes every task inline. The job
    // deadline is honoured between tasks — the inline task body has no
    // Cancel channel to poll.
    const int n = static_cast<int>(tasks_.size());
    for (int t = 0; t < n; ++t) {
      if (task_states_[static_cast<std::size_t>(t)].done) {
        continue;  // restored from a checkpoint
      }
      const bool deadline_hit = options_.job_deadline_s > 0.0 &&
                                now_rel() >= options_.job_deadline_s;
      const bool token_hit = options_.cancel.cancel_requested();
      if (deadline_hit || token_hit) {
        cancelled_ = true;
        event(now_rel(), -1, -1, 0,
              deadline_hit ? "job-deadline" : "job-cancel");
        return;
      }
      maybe_checkpoint(now_rel());
      const std::uint64_t claim = ++claim_seq_;
      const double begin_s = now_rel();
      event(begin_s, 0, t, claim, "assign");
      ++stats_.attempts;
      TaskContext ctx(
          0, t, [this](double ops) { Traits::charge_ops(comm_, ops); },
          [] {});
      results_[static_cast<std::size_t>(t)] =
          task_fn(ctx, t, mp::ByteView(tasks_[static_cast<std::size_t>(t)]));
      task_states_[static_cast<std::size_t>(t)].done = true;
      --remaining_;
      const double end_s = now_rel();
      event(end_s, 0, t, claim, "done");
      if (recorder_ != nullptr) {
        recorder_->record_chunk(0, 0, t, t + 1, claim, begin_s, end_s);
      }
    }
    stats_.completion_s = now_rel();
  }

  void run_loop() {
    const double tick = options_.effective_tick_s();
    for (;;) {
      mp::RawMessage msg;
      const bool got =
          comm_.recv_raw_timed(mp::kAnySource, mp::kAnyTag, tick, &msg);
      const double now = now_rel();
      if (got) {
        dispatch(msg, now);
      }
      maybe_cancel(now);
      maybe_checkpoint(now);
      check_timeouts(now);
      drive_idle(now);
      if (remaining_ == 0 && stats_.completion_s == 0.0 &&
          stats_.tasks > 0) {
        stats_.completion_s = now;
        event(now, -1, -1, 0, "all-done");
      }
      if (finished()) {
        return;
      }
      check_liveness(now);
    }
  }

  /// Fire the job cancellation once — deadline passed or CancelToken
  /// tripped: drop the queue, cancel busy workers, shut down parked
  /// ones. From here on the loop only drains — no assignment, no
  /// requeue, no all-dead error.
  void maybe_cancel(double now) {
    if (cancelled_ || remaining_ == 0) {
      return;
    }
    const bool deadline_hit =
        options_.job_deadline_s > 0.0 && now >= options_.job_deadline_s;
    const bool token_hit = options_.cancel.cancel_requested();
    if (!deadline_hit && !token_hit) {
      return;
    }
    cancelled_ = true;
    event(now, -1, -1, 0, deadline_hit ? "job-deadline" : "job-cancel");
    for (const int task : queue_) {
      task_states_[static_cast<std::size_t>(task)].queued = false;
    }
    queue_.clear();
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      if (ws.phase == WPhase::Busy) {
        send_cancel(comm_, w);
        event(now, w, ws.task, ws.claim, "cancel");
      } else if (ws.phase == WPhase::Parked) {
        send_shutdown(comm_, w);
        ws.phase = WPhase::ShutdownSent;
        event(now, w, -1, 0, "shutdown");
      }
      // Unknown and Returning workers get their Shutdown when their
      // next Request arrives; Dead ones are swept after run_loop.
    }
  }

  bool finished() const {
    if (remaining_ > 0 && !cancelled_) {
      return false;
    }
    for (int w = 1; w < comm_.size(); ++w) {
      const WPhase phase = workers_[static_cast<std::size_t>(w)].phase;
      if (phase != WPhase::Dead && phase != WPhase::ShutdownSent) {
        return false;
      }
    }
    return true;
  }

  void dispatch(const mp::RawMessage& msg, double now) {
    const int w = msg.source;
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.last_heard_s = now;
    switch (msg.tag) {
      case kTagRequest: {
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
        } else if (ws.phase == WPhase::Busy) {
          if (cancelled_) {
            // The worker abandoned its attempt at a progress() poll
            // after our Cancel — the expected drain handshake, not a
            // lost result.
            event(now, w, ws.task, ws.claim, "cancel-drain");
            end_attempt(ws.task, ws.claim, now);
          } else {
            // A busy worker asking for work means its Done never
            // reached us: the result is lost, the attempt is void.
            ++stats_.lost_results;
            event(now, w, ws.task, ws.claim, "lost-result");
            end_attempt(ws.task, ws.claim, now);
            requeue_if_needed(ws.task, now, /*front=*/true);
          }
        }
        ws.phase = WPhase::Parked;
        ws.task = -1;
        try_assign(w, now);
        break;
      }
      case kTagDone: {
        util::Reader reader(msg.payload);
        const TaskHeader header = parse_header(reader);
        // Keep the result as a zero-copy slice of the Done message.
        const std::uint32_t result_len = reader.u32();
        mp::Buffer result = msg.payload.slice(reader.pos(), result_len);
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
        }
        end_attempt(header.task_id, header.claim, now);
        TaskState& ts = task_states_[static_cast<std::size_t>(header.task_id)];
        if (!ts.done) {
          ts.done = true;
          results_[static_cast<std::size_t>(header.task_id)] =
              std::move(result);
          --remaining_;
          event(now, w, header.task_id, header.claim, "done");
          // Backups of a finished task are superseded: first finisher
          // wins, later results are recorded as duplicates.
          for (Attempt& attempt : ts.attempts) {
            if (attempt.live) {
              end_attempt(header.task_id, attempt.claim, now);
            }
          }
        } else {
          event(now, w, header.task_id, header.claim, "dup-done");
        }
        ws.phase = WPhase::Returning;
        ws.task = -1;
        break;
      }
      case kTagHeartbeat: {
        util::Reader reader(msg.payload);
        const TaskHeader header = parse_header(reader);
        ++stats_.heartbeats;
        event(now, w, header.task_id, header.claim, "heartbeat");
        if (ws.phase == WPhase::Dead) {
          resurrect(w, now);
          // It is still crunching the task we wrote off; let it run as a
          // (possibly duplicated) live attempt again.
          TaskState& ts =
              task_states_[static_cast<std::size_t>(header.task_id)];
          if (!ts.done) {
            for (Attempt& attempt : ts.attempts) {
              if (attempt.claim == header.claim) {
                attempt.live = true;
              }
            }
          }
          ws.phase = WPhase::Busy;
          ws.task = header.task_id;
          ws.claim = header.claim;
        }
        break;
      }
      default:
        throw ClusterError("cluster master: unexpected tag " +
                           std::to_string(msg.tag) + " from rank " +
                           std::to_string(w));
    }
  }

  void resurrect(int w, double now) {
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.phase = WPhase::Parked;
    ++stats_.resurrections;
    --stats_.dead_workers;
    dead_.erase(std::remove(dead_.begin(), dead_.end(), w), dead_.end());
    event(now, w, -1, 0, "worker-back");
  }

  /// Mark the attempt identified by (task, claim) finished/void and
  /// record its lane segment in the schedule trace.
  void end_attempt(int task, std::uint64_t claim, double now) {
    if (task < 0 || task >= static_cast<int>(task_states_.size())) {
      return;
    }
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    for (Attempt& attempt : ts.attempts) {
      if (attempt.claim == claim && attempt.live) {
        attempt.live = false;
        if (recorder_ != nullptr) {
          recorder_->record_chunk(attempt.worker, 0, task, task + 1, claim,
                                  attempt.assigned_s, now);
        }
      }
    }
  }

  void requeue_if_needed(int task, double now, bool front) {
    if (cancelled_) {
      return;  // nothing is re-executed after the job deadline
    }
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    if (ts.done || ts.queued) {
      return;
    }
    for (const Attempt& attempt : ts.attempts) {
      if (attempt.live) {
        return;  // a backup is still running it
      }
    }
    if (static_cast<int>(ts.attempts.size()) >=
        options_.max_attempts_per_task) {
      throw ClusterError("cluster master: task " + std::to_string(task) +
                         " failed after " +
                         std::to_string(ts.attempts.size()) +
                         " attempts (max_attempts_per_task)");
    }
    if (front) {
      queue_.push_front(task);
    } else {
      queue_.push_back(task);
    }
    ts.queued = true;
    ++stats_.requeues;
    event(now, -1, task, 0, "requeue");
  }

  void check_timeouts(double now) {
    for (int w = 1; w < comm_.size(); ++w) {
      WorkerState& ws = workers_[static_cast<std::size_t>(w)];
      const bool expected_to_talk =
          ws.phase == WPhase::Busy || ws.phase == WPhase::Returning;
      if (expected_to_talk &&
          now - ws.last_heard_s > options_.heartbeat_timeout_s) {
        const int task = ws.task;
        const std::uint64_t claim = ws.claim;
        ws.phase = WPhase::Dead;
        ws.task = -1;
        ++stats_.dead_workers;
        dead_.push_back(w);
        event(now, w, task, claim, "worker-dead");
        if (task >= 0) {
          end_attempt(task, claim, now);
          requeue_if_needed(task, now, /*front=*/true);
        }
      }
    }
    if (options_.task_timeout_s > 0.0) {
      for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
        TaskState& ts = task_states_[static_cast<std::size_t>(t)];
        if (ts.done) {
          continue;
        }
        for (Attempt& attempt : ts.attempts) {
          if (attempt.live &&
              now - attempt.assigned_s > options_.task_timeout_s) {
            event(now, attempt.worker, t, attempt.claim, "task-timeout");
            end_attempt(t, attempt.claim, now);
          }
        }
        requeue_if_needed(t, now, /*front=*/true);
      }
    }
  }

  /// Hand work to every parked worker: queued tasks first, then
  /// speculative duplicates of in-flight tasks, then (once everything is
  /// done) shutdowns.
  void drive_idle(double now) {
    for (int w = 1; w < comm_.size(); ++w) {
      if (workers_[static_cast<std::size_t>(w)].phase == WPhase::Parked) {
        try_assign(w, now);
      }
    }
  }

  void try_assign(int w, double now) {
    if (cancelled_) {
      // Every worker that reports in after the deadline leaves the
      // protocol; the queue was already dropped by maybe_cancel.
      send_shutdown(comm_, w);
      workers_[static_cast<std::size_t>(w)].phase = WPhase::ShutdownSent;
      event(now, w, -1, 0, "shutdown");
      return;
    }
    if (!queue_.empty()) {
      const int task = queue_.front();
      queue_.pop_front();
      task_states_[static_cast<std::size_t>(task)].queued = false;
      assign(w, task, /*speculative=*/false, now);
      return;
    }
    if (remaining_ == 0) {
      send_shutdown(comm_, w);
      workers_[static_cast<std::size_t>(w)].phase = WPhase::ShutdownSent;
      event(now, w, -1, 0, "shutdown");
      return;
    }
    // Speculation: duplicate the oldest in-flight task that is not
    // already at its live-attempt cap.
    int candidate = -1;
    double oldest = std::numeric_limits<double>::infinity();
    for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
      const TaskState& ts = task_states_[static_cast<std::size_t>(t)];
      if (ts.done || ts.queued) {
        continue;
      }
      int live = 0;
      double first_assigned = std::numeric_limits<double>::infinity();
      for (const Attempt& attempt : ts.attempts) {
        if (attempt.live) {
          ++live;
          first_assigned = std::min(first_assigned, attempt.assigned_s);
        }
      }
      if (live >= 1 && live < options_.max_live_attempts &&
          now - first_assigned >= options_.speculation_age_s &&
          first_assigned < oldest) {
        oldest = first_assigned;
        candidate = t;
      }
    }
    if (candidate >= 0) {
      assign(w, candidate, /*speculative=*/true, now);
    }
    // Otherwise the worker stays parked; it gets work on the next
    // requeue or a shutdown once the run completes.
  }

  void assign(int w, int task, bool speculative, double now) {
    TaskState& ts = task_states_[static_cast<std::size_t>(task)];
    if (static_cast<int>(ts.attempts.size()) >=
        options_.max_attempts_per_task) {
      throw ClusterError("cluster master: task " + std::to_string(task) +
                         " failed after " +
                         std::to_string(ts.attempts.size()) +
                         " attempts (max_attempts_per_task)");
    }
    const std::uint64_t claim = ++claim_seq_;
    ts.attempts.push_back(Attempt{w, claim, now, true, speculative});
    WorkerState& ws = workers_[static_cast<std::size_t>(w)];
    ws.phase = WPhase::Busy;
    ws.task = task;
    ws.claim = claim;
    ws.last_heard_s = now;
    ++stats_.attempts;
    if (speculative) {
      ++stats_.speculative_attempts;
    }
    event(now, w, task, claim, speculative ? "spec-assign" : "assign");
    send_assign(comm_, w, task, claim, tasks_[static_cast<std::size_t>(task)]);
  }

  void check_liveness(double now) {
    if (remaining_ == 0 || cancelled_) {
      return;
    }
    for (int w = 1; w < comm_.size(); ++w) {
      const WPhase phase = workers_[static_cast<std::size_t>(w)].phase;
      if (phase != WPhase::Dead) {
        return;  // someone can still make progress (or might show up)
      }
    }
    std::ostringstream detail;
    detail << "cluster master: all " << (comm_.size() - 1)
           << " worker(s) dead with " << remaining_
           << " task(s) outstanding:";
    for (int t = 0; t < static_cast<int>(task_states_.size()); ++t) {
      if (!task_states_[static_cast<std::size_t>(t)].done) {
        detail << " " << t;
      }
    }
    detail << " (t=" << now << "s)";
    throw ClusterError(detail.str());
  }

  std::vector<int> dead_list() const {
    std::vector<int> dead = dead_;
    std::sort(dead.begin(), dead.end());
    return dead;
  }

  void finalize_profile() {
    stats_.makespan_s = now_rel();
    if (profile_ == nullptr) {
      return;
    }
    profile_->stats = stats_;
    profile_->dead_workers = dead_list();
    if (recorder_ != nullptr) {
      profile_->schedule = std::make_shared<const rt::RunProfile>(
          recorder_->finish(stats_.makespan_s));
    }
  }

  CommT& comm_;
  const std::vector<std::vector<std::byte>>& tasks_;
  ClusterOptions options_;
  ClusterProfile* profile_;

  std::vector<mp::Buffer> results_;
  std::vector<TaskState> task_states_;
  std::vector<WorkerState> workers_;
  std::deque<int> queue_;
  std::vector<int> dead_;
  ClusterStats stats_;
  std::unique_ptr<rt::TraceRecorder> recorder_;
  std::uint64_t claim_seq_ = 0;
  int remaining_ = 0;
  double start_s_ = 0.0;
  bool cancelled_ = false;
  double last_checkpoint_s_ = 0.0;
  int checkpointed_done_ = 0;
};

/// Worker side: pull work, execute, report, heartbeat. Returns true if
/// an injected crash fault fired (the rank silently left the protocol).
/// Sets *job_cancelled when the worker abandoned an attempt after a
/// master Cancel (job deadline).
template <class CommT>
bool run_worker(CommT& comm, const TaskFn& task_fn,
                const ClusterOptions& options, const FaultPlan* faults,
                bool* job_cancelled) {
  using Traits = TransportTraits<CommT>;
  const int rank = comm.rank();
  // Polling the Cancel channel costs a scheduler yield per progress()
  // call on the Sim transport, so it is armed only when the run can
  // actually be cancelled (a deadline is set or a CancelToken is
  // connected) — uncancellable runs stay byte-identical.
  const bool cancellable =
      options.job_deadline_s > 0.0 || options.cancel.valid();
  const CrashFault* crash = faults ? faults->crash_for(rank) : nullptr;
  const double slowdown = faults ? faults->slowdown_for(rank) : 1.0;
  const bool jitter = faults != nullptr && faults->delay_jitter_s > 0.0;
  util::Rng delay_rng(jitter ? faults->seed ^
                                   (0x9E3779B97F4A7C15ULL *
                                    static_cast<std::uint64_t>(rank + 1))
                             : 0);
  auto maybe_delay = [&] {
    if (jitter) {
      Traits::charge_seconds(comm,
                             delay_rng.uniform(0.0, faults->delay_jitter_s));
    }
  };

  int started_tasks = 0;
  int done_sent = 0;
  try {
    for (;;) {
      maybe_delay();
      detail::send_request(comm);
      mp::RawMessage msg;
      do {
        // A Cancel that raced our Done (or one consumed by nobody
        // because the attempt finished first) may still sit in the
        // inbox; the master always follows it with a Shutdown, so
        // stale Cancels are simply discarded here.
        msg = comm.recv_raw(0, mp::kAnyTag);
      } while (msg.tag == detail::kTagCancel);
      if (msg.tag == detail::kTagShutdown) {
        return false;
      }
      util::ensure(msg.tag == detail::kTagAssign,
                   "cluster worker: unexpected tag from master");
      util::Reader reader(msg.payload);
      const detail::TaskHeader header = detail::parse_header(reader);
      // Zero-copy: the task body reads the payload straight out of the
      // assignment message (msg stays alive across the call).
      const mp::ByteView payload = reader.blob_view();

      const bool crash_this =
          crash != nullptr && started_tasks == crash->nth_task;
      ++started_tasks;
      double last_heartbeat_s = Traits::now(comm);
      TaskContext ctx(
          rank, header.task_id,
          [&](double ops) { Traits::charge_ops(comm, ops * slowdown); },
          [&] {
            if (crash_this) {
              throw detail::WorkerCrashSignal{};
            }
            if (cancellable) {
              mp::RawMessage cancel_msg;
              if (comm.recv_raw_timed(0, detail::kTagCancel, 0.0,
                                      &cancel_msg)) {
                throw detail::WorkerCancelSignal{};
              }
            }
            const double now = Traits::now(comm);
            if (now - last_heartbeat_s >= options.heartbeat_interval_s) {
              maybe_delay();
              detail::send_heartbeat(comm, header.task_id, header.claim);
              last_heartbeat_s = Traits::now(comm);
            }
          });
      std::vector<std::byte> result = task_fn(ctx, header.task_id, payload);
      if (crash_this) {
        // The task body never called progress(): still crash before the
        // result escapes, so the failure is observable.
        throw detail::WorkerCrashSignal{};
      }
      const bool drop =
          faults != nullptr && faults->should_drop(rank, done_sent);
      ++done_sent;
      if (!drop) {
        maybe_delay();
        detail::send_done(comm, header.task_id, header.claim, result);
      }
    }
  } catch (const detail::WorkerCrashSignal&) {
    // Fail-stop: abandon the protocol. The rank's thread lives on so
    // SPMD code after the engine (collectives) still runs.
    return true;
  } catch (const detail::WorkerCancelSignal&) {
    // Cooperative stop at a progress() boundary. Tell the master the
    // attempt is abandoned (a Request from a busy worker) and wait for
    // the Shutdown it answers a cancelled worker with.
    detail::send_request(comm);
    for (;;) {
      const mp::RawMessage msg = comm.recv_raw(0, mp::kAnyTag);
      if (msg.tag == detail::kTagShutdown) {
        break;
      }
    }
    if (job_cancelled != nullptr) {
      *job_cancelled = true;
    }
    return false;
  }
}

}  // namespace detail

/// Run a batch of tasks on the master–worker engine. SPMD: every rank of
/// the communicator calls this with the same arguments; rank 0 becomes
/// the master (it schedules, it does not execute tasks — except in a
/// single-rank world, where it runs everything inline), every other rank
/// becomes a worker. Returns per-task results on the master; workers get
/// an empty result set (check `crashed` for injected failures).
///
/// Fault tolerance: tasks lost to dead or silent workers are re-queued
/// and re-executed; stragglers are speculatively duplicated onto idle
/// workers, first finisher wins. Failures to recover from (all workers
/// dead, attempt budget exhausted) throw ClusterError on the master.
template <class CommT>
ClusterRunResult run_cluster_tasks(
    CommT& comm, const std::vector<std::vector<std::byte>>& tasks,
    const TaskFn& task_fn, const ClusterOptions& options = {},
    const FaultPlan* faults = nullptr, ClusterProfile* profile = nullptr) {
  util::require(task_fn != nullptr,
                "run_cluster_tasks: task body must be callable");
  options.validate();
  if (faults != nullptr) {
    faults->validate();
  }
  // Reliability wrapper: when the ack/retry sublayer is requested and the
  // caller handed us a bare transport, wrap it once and recurse — the
  // constexpr guard keeps an already-wrapped comm (e.g. from the
  // distributed MapReduce driver, which wraps for the whole job so the
  // collectives after the engine share the same sequence state) from
  // being wrapped twice.
  if constexpr (!is_reliable_comm_v<CommT>) {
    if (options.reliability.enabled) {
      ReliableComm<CommT> reliable(comm, options.reliability);
      ClusterRunResult result = run_cluster_tasks(reliable, tasks, task_fn,
                                                  options, faults, profile);
      if (!result.crashed) {
        // Drain unacked sends before the wrapper dies; a crashed worker
        // is fail-stop and must not linger retransmitting.
        reliable.flush();
      }
      if (profile != nullptr && comm.rank() == 0) {
        profile->retry = reliable.retry_stats();
      }
      return result;
    }
  }
  if (comm.rank() == 0) {
    detail::Master<CommT> master(comm, tasks, options, profile);
    ClusterRunResult result = master.run(task_fn);
    if (profile != nullptr) {
      // Snapshot every rank's outbound wire counters into the profile
      // schema (zombie stragglers may still add a little after this).
      profile->wire_messages.clear();
      profile->wire_bytes.clear();
      for (int r = 0; r < comm.size(); ++r) {
        const mp::WireStats wire = comm.wire_stats(r);
        profile->wire_messages.push_back(wire.messages);
        profile->wire_bytes.push_back(wire.bytes);
      }
    }
    return result;
  }
  ClusterRunResult result;
  result.crashed = detail::run_worker(comm, task_fn, options, faults,
                                      &result.job_cancelled);
  return result;
}

/// Everything a deterministic simulated engine run produces.
struct SimClusterRun {
  std::vector<mp::Buffer> results;
  std::vector<int> dead_workers;
  /// Master-side job-deadline outcome (see ClusterRunResult).
  bool job_cancelled = false;
  std::vector<int> incomplete_tasks;
  ClusterProfile profile;
  mp::ClusterReport report;
};

/// Convenience wrapper: run `tasks` on a simulated Pi cluster of
/// `nodes` ranks (rank 0 = master, nodes-1 workers) and return results,
/// profile and the machine report. Deterministic: equal inputs, options,
/// fault plan and spec give bit-identical outcomes. A simulated deadlock
/// (which a correct engine run never produces) is rethrown as
/// ClusterError.
SimClusterRun run_sim_cluster(int nodes,
                              const std::vector<std::vector<std::byte>>& tasks,
                              const TaskFn& task_fn,
                              const ClusterOptions& options = {},
                              const FaultPlan* faults = nullptr,
                              mp::ClusterSpec spec = {});

}  // namespace pblpar::cluster
