#include "rt/trace.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/json.hpp"

namespace pblpar::rt {

std::string to_string(TraceClock clock) {
  // Exhaustive switch (no default): adding a TraceClock value without a
  // name is a compile-time -Wswitch error, and a corrupted value at
  // runtime fails loudly below instead of leaking "?" into exports.
  switch (clock) {
    case TraceClock::HostSteady:
      return "host-steady";
    case TraceClock::SimVirtual:
      return "sim-virtual";
  }
  throw util::PreconditionError("to_string: invalid TraceClock value");
}

// --- TraceRecorder ---------------------------------------------------------

TraceRecorder::TraceRecorder(int num_threads, TraceClock clock)
    : clock_(clock),
      num_threads_(num_threads),
      // Sized at construction: PerThread holds atomics (the seqlock'd live
      // counters) so it is neither movable nor copyable, and vector(n)
      // builds the blocks in place.
      threads_(static_cast<std::size_t>(std::max(num_threads, 1))) {
  util::require(num_threads >= 1, "TraceRecorder: need at least one thread");
}

void TraceRecorder::register_loop(int loop_id, const std::string& schedule,
                                  std::int64_t total) {
  WriteLock guard(loops_lock_);
  for (const LoopInfo& info : loops_) {
    if (info.loop_id == loop_id) {
      return;
    }
  }
  loops_.push_back(LoopInfo{loop_id, schedule, total});
}

namespace {

/// Relaxed add into a seqlock'd live counter: atomicity is only needed so
/// a concurrent snapshot reader gets a defined (possibly stale) value —
/// the surrounding publish() brackets give the consistency.
template <class T>
void live_add(std::atomic<T>& counter, T delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

}  // namespace

void TraceRecorder::record_chunk(int tid, int loop_id, std::int64_t begin,
                                 std::int64_t end, std::uint64_t claim_order,
                                 double start_s, double end_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.chunks.push_back(
      ChunkEvent{loop_id, tid, begin, end, claim_order, start_s, end_s});
  thread.publish([&] {
    live_add(thread.live_iterations, end - begin);
    live_add(thread.live_chunks, std::uint64_t{1});
  });
}

void TraceRecorder::record_steal(int thief_tid, int loop_id, int victim_tid,
                                 std::int64_t begin, std::int64_t end,
                                 std::uint64_t claim_order, double time_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(thief_tid)];
  thread.steals.push_back(StealEvent{
      loop_id, thief_tid, victim_tid, begin, end, claim_order, time_s});
  thread.publish([&] {
    live_add(thread.live_stolen_iterations, end - begin);
    live_add(thread.live_steals, std::uint64_t{1});
  });
}

void TraceRecorder::record_barrier(int tid, double arrive_s,
                                   double release_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.barriers.push_back(BarrierEvent{tid, arrive_s, release_s});
  thread.publish([&] { live_add(thread.live_barriers, std::uint64_t{1}); });
}

void TraceRecorder::record_critical(int tid, double request_s,
                                    double acquire_s, double release_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.criticals.push_back(
      CriticalEvent{tid, request_s, acquire_s, release_s});
  thread.publish([&] { live_add(thread.live_criticals, std::uint64_t{1}); });
}

void TraceRecorder::record_single_winner(int tid, int single_id) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.singles.push_back(SingleEvent{single_id, tid});
  thread.publish([&] { live_add(thread.live_singles, std::uint64_t{1}); });
}

void TraceRecorder::record_cancel(int tid, double time_s,
                                  const std::string& cause,
                                  std::int64_t completed_iterations) {
  threads_[static_cast<std::size_t>(tid)].cancels.push_back(
      CancelEvent{tid, time_s, cause, completed_iterations});
}

void TraceRecorder::record_inject(int tid, double time_s,
                                  const std::string& kind, double delay_s) {
  threads_[static_cast<std::size_t>(tid)].injects.push_back(
      InjectEvent{tid, time_s, kind, delay_s});
}

void TraceRecorder::record_spill(int tid, const std::string& phase,
                                 std::int64_t records, std::int64_t bytes,
                                 double start_s, double end_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.spills.push_back(
      SpillEvent{tid, phase, records, bytes, start_s, end_s});
  thread.publish([&] {
    live_add(thread.live_spills, std::uint64_t{1});
    live_add(thread.live_spill_bytes, bytes);
  });
}

void TraceRecorder::record_merge(int tid, int fan_in, std::int64_t records,
                                 std::int64_t bytes, double start_s,
                                 double end_s) {
  PerThread& thread = threads_[static_cast<std::size_t>(tid)];
  thread.merges.push_back(
      MergeEvent{tid, fan_in, records, bytes, start_s, end_s});
  thread.publish([&] { live_add(thread.live_merges, std::uint64_t{1}); });
}

RunProfile TraceRecorder::finish(double region_s) {
  RunProfile profile;
  profile.clock = clock_;
  profile.num_threads = num_threads_;
  profile.region_s = region_s;
  {
    ReadLock guard(loops_lock_);
    profile.loops = loops_;
  }
  std::sort(profile.loops.begin(), profile.loops.end(),
            [](const LoopInfo& a, const LoopInfo& b) {
              return a.loop_id < b.loop_id;
            });
  for (const PerThread& thread : threads_) {
    profile.chunks.insert(profile.chunks.end(), thread.chunks.begin(),
                          thread.chunks.end());
    profile.steals.insert(profile.steals.end(), thread.steals.begin(),
                          thread.steals.end());
    profile.barriers.insert(profile.barriers.end(), thread.barriers.begin(),
                            thread.barriers.end());
    profile.criticals.insert(profile.criticals.end(),
                             thread.criticals.begin(),
                             thread.criticals.end());
    profile.singles.insert(profile.singles.end(), thread.singles.begin(),
                           thread.singles.end());
    profile.cancels.insert(profile.cancels.end(), thread.cancels.begin(),
                           thread.cancels.end());
    profile.injects.insert(profile.injects.end(), thread.injects.begin(),
                           thread.injects.end());
    profile.spills.insert(profile.spills.end(), thread.spills.begin(),
                          thread.spills.end());
    profile.merges.insert(profile.merges.end(), thread.merges.begin(),
                          thread.merges.end());
  }
  std::sort(profile.chunks.begin(), profile.chunks.end(),
            [](const ChunkEvent& a, const ChunkEvent& b) {
              return a.claim_order < b.claim_order;
            });
  std::sort(profile.steals.begin(), profile.steals.end(),
            [](const StealEvent& a, const StealEvent& b) {
              return a.claim_order < b.claim_order;
            });
  std::sort(profile.singles.begin(), profile.singles.end(),
            [](const SingleEvent& a, const SingleEvent& b) {
              return a.single_id < b.single_id;
            });
  // Stable by (time, tid): events at the same trace timestamp (common in
  // virtual time, where a whole drain can share one instant) keep a
  // deterministic order, which is what makes Sim fingerprints byte-stable.
  std::sort(profile.cancels.begin(), profile.cancels.end(),
            [](const CancelEvent& a, const CancelEvent& b) {
              return a.time_s != b.time_s ? a.time_s < b.time_s
                                          : a.tid < b.tid;
            });
  std::sort(profile.injects.begin(), profile.injects.end(),
            [](const InjectEvent& a, const InjectEvent& b) {
              return a.time_s != b.time_s ? a.time_s < b.time_s
                                          : a.tid < b.tid;
            });
  std::sort(profile.spills.begin(), profile.spills.end(),
            [](const SpillEvent& a, const SpillEvent& b) {
              return a.start_s != b.start_s ? a.start_s < b.start_s
                                            : a.tid < b.tid;
            });
  std::sort(profile.merges.begin(), profile.merges.end(),
            [](const MergeEvent& a, const MergeEvent& b) {
              return a.start_s != b.start_s ? a.start_s < b.start_s
                                            : a.tid < b.tid;
            });
  return profile;
}

LiveSnapshot TraceRecorder::live_snapshot() const {
  LiveSnapshot snapshot;
  snapshot.active = true;
  snapshot.num_threads = num_threads_;
  snapshot.threads.resize(static_cast<std::size_t>(num_threads_));
  for (int tid = 0; tid < num_threads_; ++tid) {
    const PerThread& thread = threads_[static_cast<std::size_t>(tid)];
    LiveThreadCounters& out = snapshot.threads[static_cast<std::size_t>(tid)];
    out.tid = tid;
    // Seqlock read: bracket the relaxed counter loads between two reads
    // of the sequence. An odd v1 means the owner is mid-publish — yield
    // and retry; a changed v2 means a publish landed during the reads —
    // the possibly-mixed values are discarded and the read retried. The
    // owning worker never waits for us.
    for (;;) {
      const std::uint64_t v1 =
          thread.live_seq.load(std::memory_order_acquire);
      if ((v1 & 1) != 0) {
        std::this_thread::yield();
        continue;
      }
      out.iterations =
          thread.live_iterations.load(std::memory_order_relaxed);
      out.stolen_iterations =
          thread.live_stolen_iterations.load(std::memory_order_relaxed);
      out.chunks = thread.live_chunks.load(std::memory_order_relaxed);
      out.steals = thread.live_steals.load(std::memory_order_relaxed);
      out.barriers = thread.live_barriers.load(std::memory_order_relaxed);
      out.criticals = thread.live_criticals.load(std::memory_order_relaxed);
      out.singles_won = thread.live_singles.load(std::memory_order_relaxed);
      out.spills = thread.live_spills.load(std::memory_order_relaxed);
      out.spill_bytes =
          thread.live_spill_bytes.load(std::memory_order_relaxed);
      out.merges = thread.live_merges.load(std::memory_order_relaxed);
      // Order the data loads before the recheck; paired with the
      // publisher's acq_rel open-bracket, an unchanged v2 proves no write
      // section overlapped the loads.
#if defined(__SANITIZE_THREAD__)
      // GCC's TSan neither models a bare fence nor compiles one under
      // -Werror=tsan; an acq_rel RMW recheck keeps the data loads
      // ordered before it and is modelled exactly. Reader-side and
      // sanitizer-builds only — the writer's wait-free publish path is
      // untouched in production.
      // The const_cast is sound: an atomic RMW of zero is a pure
      // synchronization operation, not a logical mutation.
      if (const_cast<std::atomic<std::uint64_t>&>(thread.live_seq)
              .fetch_add(0, std::memory_order_acq_rel) == v1) {
        break;
      }
#else
      std::atomic_thread_fence(std::memory_order_acquire);
      if (thread.live_seq.load(std::memory_order_relaxed) == v1) {
        break;
      }
#endif
    }
  }
  return snapshot;
}

LiveTotals TraceRecorder::live_totals(int max_attempts) const {
  LiveTotals totals;
  totals.active = true;
  totals.num_threads = num_threads_;
  const auto n = static_cast<std::size_t>(num_threads_);
  std::vector<std::uint64_t> seqs(n, 0);
  std::vector<LiveThreadCounters> rows(n);

  // The recheck idiom from live_snapshot(): order prior data loads before
  // re-reading a seq, in the TSan-modelled flavour under TSan.
  const auto seq_after_loads = [&](std::size_t i) {
#if defined(__SANITIZE_THREAD__)
    return const_cast<std::atomic<std::uint64_t>&>(threads_[i].live_seq)
        .fetch_add(0, std::memory_order_acq_rel);
#else
    std::atomic_thread_fence(std::memory_order_acquire);
    return threads_[i].live_seq.load(std::memory_order_relaxed);
#endif
  };

  max_attempts = std::max(max_attempts, 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Pass 1: collect each thread's row under its own seqlock, keeping
    // the verified sequence value. Row i is exact at its bracket time
    // t_i, when the thread's seq was seqs[i].
    for (std::size_t i = 0; i < n; ++i) {
      const PerThread& thread = threads_[i];
      LiveThreadCounters& row = rows[i];
      row.tid = static_cast<int>(i);
      for (;;) {
        const std::uint64_t v1 =
            thread.live_seq.load(std::memory_order_acquire);
        if ((v1 & 1) != 0) {
          std::this_thread::yield();
          continue;
        }
        row.iterations =
            thread.live_iterations.load(std::memory_order_relaxed);
        row.stolen_iterations =
            thread.live_stolen_iterations.load(std::memory_order_relaxed);
        row.chunks = thread.live_chunks.load(std::memory_order_relaxed);
        row.steals = thread.live_steals.load(std::memory_order_relaxed);
        row.barriers = thread.live_barriers.load(std::memory_order_relaxed);
        row.criticals =
            thread.live_criticals.load(std::memory_order_relaxed);
        row.singles_won =
            thread.live_singles.load(std::memory_order_relaxed);
        row.spills = thread.live_spills.load(std::memory_order_relaxed);
        row.spill_bytes =
            thread.live_spill_bytes.load(std::memory_order_relaxed);
        row.merges = thread.live_merges.load(std::memory_order_relaxed);
        if (seq_after_loads(i) == v1) {
          seqs[i] = v1;
          break;
        }
      }
    }
    // Pass 2: coherence recheck at one point V after every row. If
    // thread i's seq still equals seqs[i], no publish landed in
    // [t_i, V], so row i is still exact at V — all rows passing makes
    // the collection one consistent cross-thread cut (at V). Workers
    // never wait for this; the reader owns all the retries.
    bool stable = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (seq_after_loads(i) != seqs[i]) {
        stable = false;
        break;
      }
    }
    if (stable) {
      totals.coherent = true;
      break;
    }
    // Fall through with the (incoherent) rows: each is exact at its own
    // t_i, and every counter is monotonic, so the summed totals lie
    // between the true totals at the call's start and end.
  }

  for (const LiveThreadCounters& row : rows) {
    totals.iterations += row.iterations;
    totals.stolen_iterations += row.stolen_iterations;
    totals.chunks += row.chunks;
    totals.steals += row.steals;
    totals.barriers += row.barriers;
    totals.criticals += row.criticals;
    totals.singles_won += row.singles_won;
    totals.spills += row.spills;
    totals.spill_bytes += row.spill_bytes;
    totals.merges += row.merges;
  }
  return totals;
}

// --- LiveSnapshot ----------------------------------------------------------

std::int64_t LiveSnapshot::total_iterations() const {
  std::int64_t total = 0;
  for (const LiveThreadCounters& thread : threads) {
    total += thread.iterations;
  }
  return total;
}

std::uint64_t LiveSnapshot::total_chunks() const {
  std::uint64_t total = 0;
  for (const LiveThreadCounters& thread : threads) {
    total += thread.chunks;
  }
  return total;
}

std::uint64_t LiveSnapshot::total_steals() const {
  std::uint64_t total = 0;
  for (const LiveThreadCounters& thread : threads) {
    total += thread.steals;
  }
  return total;
}

// --- RegionObserver --------------------------------------------------------

LiveSnapshot RegionObserver::snapshot() const {
  // Reader side of the handover lock: holding it pins the recorder —
  // detach() (a writer) cannot complete until every in-flight snapshot
  // drains, so the pointer stays valid for the whole sample.
  ReadLock guard(lock_);
  if (recorder_ == nullptr) {
    return LiveSnapshot{};
  }
  return recorder_->live_snapshot();
}

LiveTotals RegionObserver::totals() const {
  ReadLock guard(lock_);
  if (recorder_ == nullptr) {
    return LiveTotals{};
  }
  return recorder_->live_totals();
}

void RegionObserver::attach(const TraceRecorder* recorder) {
  WriteLock guard(lock_);
  recorder_ = recorder;
}

void RegionObserver::detach() {
  WriteLock guard(lock_);
  recorder_ = nullptr;
}

bool RegionObserver::try_attach(const TraceRecorder* recorder) {
  WriteLock guard(lock_);
  if (recorder_ != nullptr) {
    return false;
  }
  recorder_ = recorder;
  return true;
}

void RegionObserver::detach_if(const TraceRecorder* recorder) {
  WriteLock guard(lock_);
  if (recorder_ == recorder) {
    recorder_ = nullptr;
  }
}

// --- RunProfile aggregates -------------------------------------------------

std::vector<ThreadProfile> RunProfile::per_thread() const {
  std::vector<ThreadProfile> threads(
      static_cast<std::size_t>(std::max(num_threads, 0)));
  for (int tid = 0; tid < num_threads; ++tid) {
    threads[static_cast<std::size_t>(tid)].tid = tid;
  }
  for (const ChunkEvent& chunk : chunks) {
    ThreadProfile& thread = threads[static_cast<std::size_t>(chunk.tid)];
    thread.work_s += chunk.duration_s();
    thread.iterations += chunk.iterations();
    ++thread.chunks;
  }
  for (const StealEvent& steal : steals) {
    ThreadProfile& thread =
        threads[static_cast<std::size_t>(steal.thief_tid)];
    ++thread.steals;
    thread.stolen_iterations += steal.iterations();
  }
  for (const BarrierEvent& barrier : barriers) {
    ThreadProfile& thread = threads[static_cast<std::size_t>(barrier.tid)];
    thread.barrier_wait_s += barrier.wait_s();
    ++thread.barriers;
  }
  for (const CriticalEvent& critical : criticals) {
    ThreadProfile& thread = threads[static_cast<std::size_t>(critical.tid)];
    thread.critical_wait_s += critical.wait_s();
    thread.critical_hold_s += critical.hold_s();
    ++thread.criticals;
  }
  for (const SingleEvent& single : singles) {
    ++threads[static_cast<std::size_t>(single.winner_tid)].singles_won;
  }
  for (const SpillEvent& spill : spills) {
    ThreadProfile& thread = threads[static_cast<std::size_t>(spill.tid)];
    ++thread.spills;
    thread.spill_bytes += spill.bytes;
  }
  for (const MergeEvent& merge : merges) {
    ++threads[static_cast<std::size_t>(merge.tid)].merges;
  }
  return threads;
}

double RunProfile::load_imbalance() const {
  double max_work = 0.0;
  double total_work = 0.0;
  for (const ThreadProfile& thread : per_thread()) {
    max_work = std::max(max_work, thread.work_s);
    total_work += thread.work_s;
  }
  if (num_threads <= 0 || total_work <= 0.0) {
    return 1.0;
  }
  return max_work / (total_work / static_cast<double>(num_threads));
}

double RunProfile::barrier_wait_fraction() const {
  if (num_threads <= 0 || region_s <= 0.0) {
    return 0.0;
  }
  double wait = 0.0;
  for (const BarrierEvent& barrier : barriers) {
    wait += std::max(0.0, barrier.wait_s());
  }
  return wait / (static_cast<double>(num_threads) * region_s);
}

std::uint64_t RunProfile::critical_contentions(double min_wait_s) const {
  std::uint64_t contended = 0;
  for (const CriticalEvent& critical : criticals) {
    if (critical.wait_s() > min_wait_s) {
      ++contended;
    }
  }
  return contended;
}

// --- Rendering -------------------------------------------------------------

namespace {

std::string schedule_of(const std::vector<LoopInfo>& loops, int loop_id) {
  for (const LoopInfo& info : loops) {
    if (info.loop_id == loop_id) {
      return info.schedule;
    }
  }
  return "?";
}

}  // namespace

util::Table RunProfile::chunk_table(int loop_id) const {
  std::string title = "Chunk claims (" + to_string(clock) + ")";
  if (loop_id >= 0) {
    title += " — loop " + std::to_string(loop_id) + " [" +
             schedule_of(loops, loop_id) + "]";
  }
  util::Table table(title);
  table.columns({"loop", "order", "thread", "begin", "end", "iters",
                 "start ms", "end ms", "dur ms"},
                {util::Align::Right, util::Align::Right, util::Align::Right,
                 util::Align::Right, util::Align::Right, util::Align::Right,
                 util::Align::Right, util::Align::Right, util::Align::Right});
  for (const ChunkEvent& chunk : chunks) {
    if (loop_id >= 0 && chunk.loop_id != loop_id) {
      continue;
    }
    table.row({std::to_string(chunk.loop_id),
               std::to_string(chunk.claim_order), std::to_string(chunk.tid),
               std::to_string(chunk.begin), std::to_string(chunk.end),
               std::to_string(chunk.iterations()),
               util::Table::num(chunk.start_s * 1e3, 4),
               util::Table::num(chunk.end_s * 1e3, 4),
               util::Table::num(chunk.duration_s() * 1e3, 4)});
  }
  return table;
}

std::string RunProfile::timeline_chart(int loop_id, int width) const {
  width = std::max(width, 8);
  // Scale the lanes to the span of the selected chunks (falling back to
  // the whole region) so short loops inside long regions stay readable.
  double t_min = region_s > 0.0 ? region_s : 0.0;
  double t_max = 0.0;
  bool any = false;
  for (const ChunkEvent& chunk : chunks) {
    if (loop_id >= 0 && chunk.loop_id != loop_id) {
      continue;
    }
    any = true;
    t_min = std::min(t_min, chunk.start_s);
    t_max = std::max(t_max, chunk.end_s);
  }
  if (!any) {
    return "(no chunks recorded" +
           (loop_id >= 0 ? " for loop " + std::to_string(loop_id) : "") +
           ")\n";
  }
  const double span = std::max(t_max - t_min, 1e-12);
  const auto column_of = [&](double t) {
    const int column =
        static_cast<int>((t - t_min) / span * static_cast<double>(width));
    return std::clamp(column, 0, width - 1);
  };

  const std::vector<ThreadProfile> threads = per_thread();
  std::vector<std::string> lanes(
      static_cast<std::size_t>(num_threads),
      std::string(static_cast<std::size_t>(width), '.'));
  for (const ChunkEvent& chunk : chunks) {
    if (loop_id >= 0 && chunk.loop_id != loop_id) {
      continue;
    }
    const char mark =
        static_cast<char>('0' + static_cast<int>(chunk.claim_order % 10));
    const int first = column_of(chunk.start_s);
    const int last = column_of(chunk.end_s);
    for (int c = first; c <= last; ++c) {
      lanes[static_cast<std::size_t>(chunk.tid)][static_cast<std::size_t>(
          c)] = mark;
    }
  }

  std::ostringstream out;
  if (loop_id >= 0) {
    out << "loop " << loop_id << " [" << schedule_of(loops, loop_id)
        << "], ";
  }
  out << num_threads << " threads, " << util::Table::num(span * 1e3, 3)
      << " ms shown (" << to_string(clock)
      << "; lanes marked with claim order mod 10)\n";
  for (int tid = 0; tid < num_threads; ++tid) {
    out << "  t" << tid << " |" << lanes[static_cast<std::size_t>(tid)]
        << "|  work " << util::Table::num(
               threads[static_cast<std::size_t>(tid)].work_s * 1e3, 3)
        << " ms, " << threads[static_cast<std::size_t>(tid)].iterations
        << " iters in " << threads[static_cast<std::size_t>(tid)].chunks
        << " chunk(s)\n";
  }
  for (const StealEvent& steal : steals) {
    if (loop_id >= 0 && steal.loop_id != loop_id) {
      continue;
    }
    out << "  steal t" << steal.thief_tid << "<-t" << steal.victim_tid
        << " [" << steal.begin << "," << steal.end << ") order "
        << steal.claim_order << " @ "
        << util::Table::num(steal.time_s * 1e3, 3) << " ms\n";
  }
  // Cancel/inject legends are region-level (no loop id), so they print
  // whatever loop the lanes show — the drain cuts across every loop.
  for (const InjectEvent& inject : injects) {
    out << "  inject " << inject.kind << " t" << inject.tid << " @ "
        << util::Table::num(inject.time_s * 1e3, 3) << " ms";
    if (inject.kind == "delay") {
      out << " (" << util::Table::num(inject.delay_s * 1e3, 3) << " ms)";
    }
    out << "\n";
  }
  for (const CancelEvent& cancel : cancels) {
    out << "  cancel t" << cancel.tid << " @ "
        << util::Table::num(cancel.time_s * 1e3, 3) << " ms ("
        << cancel.cause << ", " << cancel.completed_iterations
        << " iters done)\n";
  }
  // Spill/merge legends are region-level like cancels: the out-of-core
  // tier's disk traffic is visible next to the lanes it ran beside.
  for (const SpillEvent& spill : spills) {
    out << "  spill t" << spill.tid << " [" << spill.phase << "] "
        << spill.records << " records, " << spill.bytes << " B @ "
        << util::Table::num(spill.start_s * 1e3, 3) << ".."
        << util::Table::num(spill.end_s * 1e3, 3) << " ms\n";
  }
  for (const MergeEvent& merge : merges) {
    out << "  merge t" << merge.tid << " fan-in " << merge.fan_in << ", "
        << merge.records << " records, " << merge.bytes << " B @ "
        << util::Table::num(merge.start_s * 1e3, 3) << ".."
        << util::Table::num(merge.end_s * 1e3, 3) << " ms\n";
  }
  return out.str();
}

std::string RunProfile::to_csv() const {
  return chunk_table(-1).to_csv();
}

std::string RunProfile::to_json() const {
  util::Json json;
  json.begin_object().fields("clock", to_string(clock),
                             "num_threads", num_threads,
                             "region_s", region_s);
  json.key("loops").begin_array();
  for (const LoopInfo& l : loops) {
    json.object("id", l.loop_id, "schedule", l.schedule, "total", l.total);
  }
  json.end_array().key("chunks").begin_array();
  for (const ChunkEvent& c : chunks) {
    json.object("loop", c.loop_id, "order", c.claim_order, "tid", c.tid,
                "begin", c.begin, "end", c.end,
                "start_s", c.start_s, "end_s", c.end_s);
  }
  json.end_array().key("steals").begin_array();
  for (const StealEvent& s : steals) {
    json.object("loop", s.loop_id, "order", s.claim_order,
                "thief", s.thief_tid, "victim", s.victim_tid,
                "begin", s.begin, "end", s.end, "time_s", s.time_s);
  }
  json.end_array().key("barriers").begin_array();
  for (const BarrierEvent& b : barriers) {
    json.object("tid", b.tid, "arrive_s", b.arrive_s,
                "release_s", b.release_s);
  }
  json.end_array().key("criticals").begin_array();
  for (const CriticalEvent& c : criticals) {
    json.object("tid", c.tid, "request_s", c.request_s,
                "acquire_s", c.acquire_s, "release_s", c.release_s);
  }
  json.end_array().key("singles").begin_array();
  for (const SingleEvent& s : singles) {
    json.object("id", s.single_id, "winner", s.winner_tid);
  }
  json.end_array().key("cancels").begin_array();
  for (const CancelEvent& c : cancels) {
    json.object("tid", c.tid, "time_s", c.time_s, "cause", c.cause,
                "completed_iterations", c.completed_iterations);
  }
  json.end_array().key("injects").begin_array();
  for (const InjectEvent& i : injects) {
    json.object("tid", i.tid, "time_s", i.time_s, "kind", i.kind,
                "delay_s", i.delay_s);
  }
  json.end_array().key("spills").begin_array();
  for (const SpillEvent& s : spills) {
    json.object("tid", s.tid, "phase", s.phase, "records", s.records,
                "bytes", s.bytes, "start_s", s.start_s, "end_s", s.end_s);
  }
  json.end_array().key("merges").begin_array();
  for (const MergeEvent& m : merges) {
    json.object("tid", m.tid, "fan_in", m.fan_in, "records", m.records,
                "bytes", m.bytes, "start_s", m.start_s, "end_s", m.end_s);
  }
  json.end_array().key("per_thread").begin_array();
  for (const ThreadProfile& t : per_thread()) {
    json.object("tid", t.tid, "work_s", t.work_s,
                "barrier_wait_s", t.barrier_wait_s,
                "critical_wait_s", t.critical_wait_s,
                "critical_hold_s", t.critical_hold_s,
                "iterations", t.iterations, "chunks", t.chunks,
                "steals", t.steals, "stolen_iterations", t.stolen_iterations,
                "barriers", t.barriers, "criticals", t.criticals,
                "singles_won", t.singles_won, "spills", t.spills,
                "spill_bytes", t.spill_bytes, "merges", t.merges);
  }
  return json.end_array()
      .fields("load_imbalance", load_imbalance(),
              "barrier_wait_fraction", barrier_wait_fraction())
      .end_object()
      .str();
}

std::string RunProfile::summary() const {
  std::ostringstream out;
  out << num_threads << " threads on the " << to_string(clock) << " clock, "
      << util::Table::num(region_s * 1e3, 3) << " ms region: "
      << chunks.size() << " chunk(s) over " << loops.size()
      << " loop(s), " << steals.size() << " stolen, load imbalance "
      << util::Table::num(load_imbalance(), 3) << ", barrier-wait fraction "
      << util::Table::num(barrier_wait_fraction(), 3) << ", "
      << critical_contentions() << " contended critical entr"
      << (critical_contentions() == 1 ? "y" : "ies") << ".";
  return out.str();
}

}  // namespace pblpar::rt
