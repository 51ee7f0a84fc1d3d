// Scheduler shoot-out for the TeachMP runtime: static / dynamic / guided
// against the work-stealing schedule, on a uniform and a tail-heavy cost
// profile, across thread counts — plus region-launch latency (persistent
// pool vs per-region spawn) and the devirtualized for_each against the
// std::function-based for_loop on a trivial body.
//
// Host rows are real time (min over repeats); launch rows are medians of
// per-region samples (launch cost is paid on every region, so the typical
// cost is the honest number, and the median shrugs off the occasional
// region that eats a scheduler preemption mid-handoff); Sim rows are
// deterministic virtual Pi time, where dynamic,1's
// serialized shared-counter claims and steal's mostly-local deque pops
// are modelled explicitly. Results go to BENCH_rt.json in the working
// directory.
//
// --smoke runs a tiny shape in well under a second; the bench-smoke ctest
// label uses it so the bench binary itself stays exercised by the suite.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mp/comm.hpp"
#include "mp/mailbox.hpp"
#include "rt/cancel.hpp"
#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "rt/steal_deque.hpp"

namespace {

using namespace pblpar;

/// Busy work proportional to `units`; volatile so the optimizer keeps it.
void spin(std::int64_t units) {
  volatile double sink = 0.0;
  for (std::int64_t k = 0; k < units; ++k) {
    sink = sink + static_cast<double>(k);
  }
}

struct LoopRow {
  std::string backend;   // "host" | "sim"
  std::string profile;   // "uniform" | "skewed"
  int threads = 0;
  std::string schedule;
  double seconds = 0.0;
};

/// Host run of `total` iterations where [heavy_from, total) spin
/// `heavy_units` and the rest `base_units`; min over `repeats`. The warm
/// pool is part of what is measured: regions launch on parked workers,
/// exactly like the second and later regions of any real program.
double time_host_loop(int threads, rt::Schedule schedule, std::int64_t total,
                      std::int64_t heavy_from, std::int64_t base_units,
                      std::int64_t heavy_units, int repeats) {
  rt::warm_up(rt::ParallelConfig::host(threads));
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = bench::Clock::now();
    rt::parallel(rt::ParallelConfig::host(threads), [&](rt::TeamContext& tc) {
      rt::for_each(tc, rt::Range::upto(total), schedule,
                   [&](std::int64_t i) {
                     spin(i >= heavy_from ? heavy_units : base_units);
                   });
    });
    best = std::min(best, bench::seconds_since(start));
  }
  return best;
}

/// Median latency of an empty parallel region — the pure launch + join
/// cost — on the persistent pool or the per-region spawn path. One
/// untimed region first so the pool's workers exist (or the allocator
/// and thread stacks are warm on the spawn path). Each region is timed
/// individually and the median taken: on a loaded machine a few samples
/// absorb a preemption mid-handoff, and those tails say nothing about
/// what a region launch costs.
double time_region_launch(int threads, bool pooled, int repeats) {
  rt::ParallelConfig config = rt::ParallelConfig::host(threads);
  if (!pooled) {
    config = config.unpooled();
  }
  rt::parallel(config, [](rt::TeamContext&) {});
  std::vector<double> samples(static_cast<std::size_t>(repeats), 0.0);
  for (double& sample : samples) {
    const auto start = bench::Clock::now();
    rt::parallel(config, [](rt::TeamContext&) {});
    sample = bench::seconds_since(start);
  }
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Spawn-path and pooled medians at one team width: the launch and the
/// cancel rows.
struct PoolRow {
  int threads = 0;
  double spawn_seconds = 0.0;
  double pool_seconds = 0.0;
};

/// The row measured at `threads`; all zero when none was.
PoolRow row_at(const std::vector<PoolRow>& rows, int threads) {
  for (const PoolRow& row : rows) {
    if (row.threads == threads) {
      return row;
    }
  }
  return PoolRow{};
}

/// Median latency from an external cancel() to rt::Cancelled surfacing
/// out of the region — the cooperative drain cost the runtime promises.
/// A helper thread waits until the loop has demonstrably started, stamps
/// the clock, and cancels; the region runs dynamic,1 over a range far too
/// large to finish, so every sample measures the drain, not completion.
double time_cancel_drain(int threads, bool pooled, int repeats) {
  rt::ParallelConfig base = rt::ParallelConfig::host(threads);
  if (!pooled) {
    base = base.unpooled();
  }
  rt::parallel(base, [](rt::TeamContext&) {});
  std::vector<double> samples(static_cast<std::size_t>(repeats), 0.0);
  for (double& sample : samples) {
    rt::CancelSource source;
    std::atomic<bool> started{false};
    std::atomic<std::int64_t> cancelled_at_ns{0};
    std::thread canceller([&] {
      while (!started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      cancelled_at_ns.store(std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count(),
                            std::memory_order_release);
      source.cancel();
    });
    try {
      rt::parallel(
          base.cancellable(source.token()), [&](rt::TeamContext& tc) {
            rt::for_each(tc, rt::Range::upto(std::int64_t{1} << 30),
                         rt::Schedule::dynamic(1), [&](std::int64_t) {
                           started.store(true, std::memory_order_release);
                           spin(16);
                         });
          });
    } catch (const rt::Cancelled&) {
      const auto end_ns =
          std::chrono::steady_clock::now().time_since_epoch().count();
      sample = static_cast<double>(
                   end_ns - cancelled_at_ns.load(std::memory_order_acquire)) *
               1e-9;
    }
    canceller.join();
  }
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Deterministic Sim run of the same shape: the body is free, the cost
/// model charges the per-iteration ops, and the backend charges its own
/// claim costs (serialized shared counter vs mostly-local deque pops).
double sim_loop_makespan(int threads, rt::Schedule schedule,
                         std::int64_t total, std::int64_t heavy_from,
                         double base_ops, double heavy_ops) {
  rt::CostModel cost;
  cost.ops_fn = [=](std::int64_t i) {
    return i >= heavy_from ? heavy_ops : base_ops;
  };
  const rt::RunResult run = rt::parallel_for(
      rt::ParallelConfig::sim_pi(threads), rt::Range::upto(total), schedule,
      [](std::int64_t) {}, cost);
  return run.elapsed_seconds();
}

/// Trivial-body loop through either the templated for_each (body inlined)
/// or the std::function for_loop (one indirect call per iteration).
double time_trivial_loop(bool devirtualized, std::int64_t total,
                         int repeats) {
  std::vector<double> data(static_cast<std::size_t>(total), 0.0);
  const auto body = [&data](std::int64_t i) {
    data[static_cast<std::size_t>(i)] =
        0.5 * static_cast<double>(i) + 1.0;
  };
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = bench::Clock::now();
    rt::parallel(rt::ParallelConfig::host(1), [&](rt::TeamContext& tc) {
      if (devirtualized) {
        rt::for_each(tc, rt::Range::upto(total), rt::Schedule::static_block(),
                     body);
      } else {
        rt::for_loop(tc, rt::Range::upto(total), rt::Schedule::static_block(),
                     body);
      }
    });
    best = std::min(best, bench::seconds_since(start));
  }
  volatile double keep = data[static_cast<std::size_t>(total / 2)];
  (void)keep;
  return best;
}

// --- Lock-free core baselines -----------------------------------------

/// The mutex-protected span deque the Chase–Lev implementation replaced:
/// identical interface, every owner pop and every steal under one lock.
class LockedSpanDeque {
 public:
  void install(rt::StealSpan span) {
    std::lock_guard<std::mutex> guard(mu_);
    lo_ = span.lo;
    hi_ = span.hi;
  }

  bool take(std::int64_t* chunk_index) {
    std::lock_guard<std::mutex> guard(mu_);
    if (lo_ >= hi_) {
      return false;
    }
    *chunk_index = lo_++;
    return true;
  }

  rt::StealOutcome steal(std::int64_t* chunk_index) {
    std::lock_guard<std::mutex> guard(mu_);
    if (lo_ >= hi_) {
      return rt::StealOutcome::kEmpty;
    }
    *chunk_index = --hi_;
    return rt::StealOutcome::kGot;
  }

 private:
  std::mutex mu_;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

/// Drain `chunks` chunk indices split across `threads` deques: each
/// worker empties its own deque, then sweeps the victims round-robin —
/// the host backend's steal loop, minus the loop body. Both deque types
/// share the install/take/steal interface, so the harness is templated
/// and measures only the claim protocol. Min over repeats; exactly-once
/// delivery is verified on every repeat (a lost or duplicated chunk is a
/// broken deque, not a slow one — abort loudly).
template <class Deque>
double time_steal_drain(int threads, std::int64_t chunks, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    std::vector<std::unique_ptr<Deque>> deques;
    for (int t = 0; t < threads; ++t) {
      deques.push_back(std::make_unique<Deque>());
      deques.back()->install(rt::steal_initial_span(chunks, 1, threads, t));
    }
    std::atomic<std::int64_t> claimed{0};
    // The workers stamp their own start and end; the drain time is
    // max(end) - min(start). Timing from the launching thread's barrier
    // arrivals would race the scheduler: on a loaded (or single-core)
    // host, the workers can finish the whole drain before the launcher
    // gets another slice, and the "measured" interval collapses to zero.
    std::atomic<std::int64_t> first_start_ns{
        std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> last_end_ns{0};
    std::barrier sync(threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        sync.arrive_and_wait();  // released together
        const std::int64_t t0 = std::chrono::steady_clock::now()
                                    .time_since_epoch()
                                    .count();
        std::int64_t local = 0;
        std::int64_t chunk_index = 0;
        while (deques[static_cast<std::size_t>(t)]->take(&chunk_index)) {
          ++local;
        }
        for (int step = 1; step < threads; ++step) {
          Deque& victim = *deques[static_cast<std::size_t>((t + step) %
                                                           threads)];
          for (;;) {
            const rt::StealOutcome outcome = victim.steal(&chunk_index);
            if (outcome == rt::StealOutcome::kEmpty) {
              break;
            }
            if (outcome == rt::StealOutcome::kGot) {
              ++local;
            }
            // kLost: someone else's CAS won; retry the same victim.
          }
        }
        const std::int64_t t1 = std::chrono::steady_clock::now()
                                    .time_since_epoch()
                                    .count();
        std::int64_t seen = first_start_ns.load(std::memory_order_relaxed);
        while (t0 < seen && !first_start_ns.compare_exchange_weak(
                                seen, t0, std::memory_order_relaxed)) {
        }
        seen = last_end_ns.load(std::memory_order_relaxed);
        while (t1 > seen && !last_end_ns.compare_exchange_weak(
                                seen, t1, std::memory_order_relaxed)) {
        }
        claimed.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    best = std::min(best, static_cast<double>(last_end_ns.load() -
                                              first_start_ns.load()) *
                              1e-9);
    if (claimed.load(std::memory_order_relaxed) != chunks) {
      std::fprintf(stderr,
                   "steal drain lost chunks: claimed %lld of %lld\n",
                   static_cast<long long>(claimed.load()),
                   static_cast<long long>(chunks));
      std::exit(1);
    }
  }
  return best;
}

/// The mutex+condvar mailbox the lock-free MPSC queue replaced, reduced
/// to what the ping-pong needs: push with notify_all (the old behaviour)
/// and a timed any-message pop under the same lock.
class LockedMailbox {
 public:
  void push(mp::RawMessage message) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      queue_.push_back(std::move(message));
    }
    cv_.notify_all();
  }

  bool pop(mp::RawMessage* out, double timeout_s) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_until(lock, deadline, [&] { return !queue_.empty(); })) {
      return false;
    }
    *out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<mp::RawMessage> queue_;
};

mp::RawMessage ping_message() {
  mp::RawMessage message;
  message.source = 0;
  message.tag = 0;
  message.type_hash = mp::type_hash_of<int>();
  message.payload = mp::Codec<int>::encode(1);
  return message;
}

/// Per-round-trip latency of a two-mailbox ping-pong through the locked
/// baseline: min over `repeats` blocks of `round_trips` exchanges (the
/// same min-over-repeats the loop rows use — a context-switch storm in
/// one block should not masquerade as mailbox cost). One untimed warm-up
/// exchange parks/wakes both sides before any clock starts.
double time_mailbox_rtt_locked(int round_trips, int repeats) {
  LockedMailbox to_echo;
  LockedMailbox to_origin;
  std::thread echo([&] {
    mp::RawMessage message;
    for (int i = 0; i < repeats * round_trips + 1; ++i) {
      to_echo.pop(&message, 60.0);
      to_origin.push(message);
    }
  });
  mp::RawMessage back;
  to_echo.push(ping_message());
  to_origin.pop(&back, 60.0);  // warm-up exchange
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = bench::Clock::now();
    for (int i = 0; i < round_trips; ++i) {
      to_echo.push(ping_message());
      to_origin.pop(&back, 60.0);
    }
    best = std::min(best, bench::seconds_since(start));
  }
  echo.join();
  return best / round_trips;
}

/// Same ping-pong through the real lock-free mp::Mailbox. Each box has
/// exactly one consumer (echo drains to_echo, main drains to_origin), so
/// the MPSC single-consumer invariant holds.
double time_mailbox_rtt_lockfree(int round_trips, int repeats) {
  mp::AbortState abort;
  mp::Mailbox to_echo(abort, 60.0, 1);
  mp::Mailbox to_origin(abort, 60.0, 0);
  std::thread echo([&] {
    mp::RawMessage message;
    for (int i = 0; i < repeats * round_trips + 1; ++i) {
      to_echo.pop_matching_timed(mp::kAnySource, mp::kAnyTag, 60.0,
                                 &message);
      to_origin.push(message);
    }
  });
  mp::RawMessage back;
  to_echo.push(ping_message());
  to_origin.pop_matching_timed(mp::kAnySource, mp::kAnyTag, 60.0, &back);
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = bench::Clock::now();
    for (int i = 0; i < round_trips; ++i) {
      to_echo.push(ping_message());
      to_origin.pop_matching_timed(mp::kAnySource, mp::kAnyTag, 60.0, &back);
    }
    best = std::min(best, bench::seconds_since(start));
  }
  echo.join();
  return best / round_trips;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);

  // Shape: `total` iterations of a small spin; the skewed profile makes
  // the last eighth `kHeavyFactor` times heavier — the tail a static
  // block split dumps on the last thread, and enough cheap iterations
  // that dynamic,1's per-iteration claim overhead is visible.
  const std::int64_t total = smoke ? 4096 : (1 << 17);
  const std::int64_t base_units = 16;
  constexpr std::int64_t kHeavyFactor = 24;
  const int repeats = smoke ? 2 : 15;
  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4, 8};

  const std::vector<rt::Schedule> schedules = {
      rt::Schedule::static_block(), rt::Schedule::dynamic(1),
      rt::Schedule::dynamic(16), rt::Schedule::guided(1),
      rt::Schedule::steal()};

  std::vector<LoopRow> rows;
  std::printf("==== scheduler shoot-out: %lld iterations, heavy tail x%lld "
              "====\n",
              static_cast<long long>(total),
              static_cast<long long>(kHeavyFactor));
  for (const char* profile : {"uniform", "skewed"}) {
    const bool skewed = std::strcmp(profile, "skewed") == 0;
    const std::int64_t heavy_from = skewed ? total - total / 8 : total;
    for (const int threads : thread_counts) {
      for (const rt::Schedule& schedule : schedules) {
        const double seconds =
            time_host_loop(threads, schedule, total, heavy_from, base_units,
                           base_units * kHeavyFactor, repeats);
        rows.push_back(LoopRow{"host", profile, threads,
                               schedule.to_string(), seconds});
        std::printf("host %-8s t=%d %-10s %9.3f ms\n", profile, threads,
                    schedule.to_string().c_str(), seconds * 1e3);
      }
    }
  }

  // Sim rows: virtual Pi time, deterministic. Same shape scaled down (the
  // simulator retires one event per claim/chunk, so fewer iterations keep
  // the bench quick) with ops chosen so claim overhead matters.
  const std::int64_t sim_total = smoke ? 1024 : 8192;
  const std::int64_t sim_heavy_from = sim_total - sim_total / 8;
  for (const int threads : thread_counts) {
    for (const rt::Schedule& schedule : schedules) {
      const double seconds =
          sim_loop_makespan(threads, schedule, sim_total, sim_heavy_from,
                            2e3, 2e3 * kHeavyFactor);
      rows.push_back(LoopRow{"sim", "skewed", threads, schedule.to_string(),
                             seconds});
      std::printf("sim  %-8s t=%d %-10s %9.3f ms (virtual)\n", "skewed",
                  threads, schedule.to_string().c_str(), seconds * 1e3);
    }
  }

  // Region-launch latency: what one empty parallel() costs on the
  // persistent pool (parked workers, generation handoff) vs the spawn
  // path (fresh threads per region) — the number that decides whether a
  // thread-count sweep measures the loop or the fork.
  const int launch_repeats = smoke ? 50 : 500;
  std::vector<PoolRow> launch_rows;
  for (const int threads : thread_counts) {
    PoolRow row;
    row.threads = threads;
    row.spawn_seconds = time_region_launch(threads, false, launch_repeats);
    row.pool_seconds = time_region_launch(threads, true, launch_repeats);
    launch_rows.push_back(row);
    std::printf("launch t=%d spawn %8.2f us, pool %8.2f us (%.1fx)\n",
                threads, row.spawn_seconds * 1e6, row.pool_seconds * 1e6,
                row.pool_seconds > 0.0
                    ? row.spawn_seconds / row.pool_seconds
                    : 0.0);
  }

  // Cancellation-drain latency: how long after an external cancel() the
  // region actually returns control (as rt::Cancelled), pool vs spawn.
  // Chunk-boundary polling means this is roughly one dynamic,1 chunk plus
  // the abortable-barrier drain — it must stay in launch-latency
  // territory, not loop-runtime territory.
  const int cancel_repeats = smoke ? 10 : 100;
  std::vector<PoolRow> cancel_rows;
  for (const int threads : thread_counts) {
    PoolRow row;
    row.threads = threads;
    row.spawn_seconds = time_cancel_drain(threads, false, cancel_repeats);
    row.pool_seconds = time_cancel_drain(threads, true, cancel_repeats);
    cancel_rows.push_back(row);
    std::printf("cancel t=%d spawn %8.2f us, pool %8.2f us\n", threads,
                row.spawn_seconds * 1e6, row.pool_seconds * 1e6);
  }

  // Devirtualization: identical trivial body through both drivers.
  const std::int64_t devirt_total = smoke ? (1 << 16) : (1 << 21);
  const int devirt_repeats = smoke ? 2 : 7;
  const double wrapper_s =
      time_trivial_loop(false, devirt_total, devirt_repeats);
  const double inlined_s =
      time_trivial_loop(true, devirt_total, devirt_repeats);
  std::printf("devirt: for_loop %.3f ms, for_each %.3f ms over %lld trivial "
              "iterations\n",
              wrapper_s * 1e3, inlined_s * 1e3,
              static_cast<long long>(devirt_total));

  // Lock-free core: the Chase–Lev steal drain at t=8 against the
  // mutex-protected deque it replaced, and the lock-free mailbox round
  // trip against the locked one. "Not worse" is the bar — the rewrite
  // exists to remove lock convoys, so regressing past the margin means
  // something is wrong with the claim protocol or the parking path.
  const int steal_threads = 8;
  const std::int64_t steal_chunks = smoke ? (1 << 12) : (1 << 16);
  const int steal_repeats = smoke ? 4 : 9;
  const int round_trips = smoke ? 256 : 4096;
  const int rtt_repeats = smoke ? 3 : 9;
  // Up to three measurement attempts, keeping the min per implementation
  // (the same min-over-repeats policy every row uses): under a parallel
  // ctest run, one side of a comparison can get starved for a whole
  // attempt, and a guard verdict from a single attempt would flake. A
  // genuine convoy regression reproduces on every attempt.
  double chaselev_s = 1e300;
  double locked_deque_s = 1e300;
  double lockfree_rtt_s = 1e300;
  double locked_rtt_s = 1e300;
  const auto lockfree_within_guard = [&] {
    return chaselev_s <= 2.0 * locked_deque_s &&
           lockfree_rtt_s <= 2.0 * locked_rtt_s;
  };
  for (int attempt = 0; attempt < 3; ++attempt) {
    chaselev_s = std::min(
        chaselev_s, time_steal_drain<rt::ChaseLevSpan>(
                        steal_threads, steal_chunks, steal_repeats));
    locked_deque_s = std::min(
        locked_deque_s, time_steal_drain<LockedSpanDeque>(
                            steal_threads, steal_chunks, steal_repeats));
    lockfree_rtt_s = std::min(
        lockfree_rtt_s, time_mailbox_rtt_lockfree(round_trips, rtt_repeats));
    locked_rtt_s = std::min(
        locked_rtt_s, time_mailbox_rtt_locked(round_trips, rtt_repeats));
    if (lockfree_within_guard()) {
      break;
    }
  }
  std::printf("steal-drain t=%d, %lld chunks: chaselev %8.3f ms, "
              "mutex %8.3f ms (%.2fx)\n",
              steal_threads, static_cast<long long>(steal_chunks),
              chaselev_s * 1e3, locked_deque_s * 1e3,
              chaselev_s > 0.0 ? locked_deque_s / chaselev_s : 0.0);
  std::printf("mailbox rtt over %d round trips: lock-free %8.3f us, "
              "locked %8.3f us (%.2fx)\n",
              round_trips, lockfree_rtt_s * 1e6, locked_rtt_s * 1e6,
              lockfree_rtt_s > 0.0 ? locked_rtt_s / lockfree_rtt_s : 0.0);

  // Acceptance probes: does steal beat dynamic,1 on the skewed loop at
  // every measured thread count >= 4 (host real time and sim virtual
  // time), and does the inlined driver beat the type-erased one?
  const auto loop_seconds = [&rows](const std::string& backend,
                                    const std::string& profile, int threads,
                                    const std::string& schedule) {
    for (const LoopRow& row : rows) {
      if (row.backend == backend && row.profile == profile &&
          row.threads == threads && row.schedule == schedule) {
        return row.seconds;
      }
    }
    return -1.0;
  };
  bool steal_wins_host = true;
  bool steal_wins_sim = true;
  for (const int threads : thread_counts) {
    if (threads < 4) {
      continue;
    }
    steal_wins_host =
        steal_wins_host && loop_seconds("host", "skewed", threads, "steal") <
                               loop_seconds("host", "skewed", threads,
                                            "dynamic,1");
    steal_wins_sim =
        steal_wins_sim && loop_seconds("sim", "skewed", threads, "steal") <
                              loop_seconds("sim", "skewed", threads,
                                           "dynamic,1");
  }

  // Pool checks: launching on parked workers must beat spawning by >= 5x
  // at 4 threads (the Pi-class team width); uniform host loops must not
  // degrade from 1 to 4 threads any more (launch off the critical path);
  // and dynamic,1's wait-free inlined claims must sit within 1.25x of
  // static on the uniform loop at 1 thread — the pure per-iteration
  // claim-overhead margin, measured without any multi-thread scheduling
  // noise.
  const int pool_check_threads =
      std::find(thread_counts.begin(), thread_counts.end(), 4) !=
              thread_counts.end()
          ? 4
          : thread_counts.back();
  const PoolRow check_row = row_at(launch_rows, pool_check_threads);
  const int t_lo = thread_counts.front();
  // "More threads must not be slower" is only a property the hardware
  // can deliver when the box is at least as wide as the team; a 1-core
  // container serializes every member onto the same CPU and the check
  // would measure the OS scheduler, not the runtime. Gate it on the
  // machine width and pass it vacuously on narrow boxes.
  const bool static_check_applicable =
      rt::hardware_threads() >= pool_check_threads;

  // Cancellation must drain in launch-latency territory: the pooled
  // cancel drain at the Pi-class team width stays within 100x of a
  // pooled empty-region launch (a deliberately loose multiple — the
  // drain includes one in-flight chunk and an OS-scheduler wakeup — but
  // tight enough to catch a drain that degenerates into running the
  // rest of the loop).
  const PoolRow cancel_check_row = row_at(cancel_rows, pool_check_threads);

  // Every check but the last is recorded and only reports: timing bars
  // on a shared box flake. The recorded lock-free checks use a 1.25x margin
  // (lock-free must sit at or below the locked baseline, give or take
  // scheduler noise). The exit code follows only a looser 2x guard band:
  // wide enough that scheduler noise on a loaded (or single-core) box
  // does not flake the tier-1 suite, tight enough to catch a lock-free
  // path that degenerated into a convoy.
  bench::Checks checks;
  const auto report = [&checks](const char* name, bool passed) {
    checks.add({.name = name, .passed = passed, .gates = false});
  };
  report("steal_beats_dynamic1_skewed_host", steal_wins_host);
  report("steal_beats_dynamic1_skewed_sim", steal_wins_sim);
  report("for_each_beats_for_loop", inlined_s < wrapper_s);
  report("pool_launch_beats_spawn",
         check_row.pool_seconds > 0.0 &&
             check_row.spawn_seconds >= 5.0 * check_row.pool_seconds);
  report("static_uniform_no_degradation",
         !static_check_applicable ||
             loop_seconds("host", "uniform", pool_check_threads, "static") <=
                 loop_seconds("host", "uniform", t_lo, "static"));
  report("dynamic1_within_1p25x_static_uniform",
         loop_seconds("host", "uniform", t_lo, "dynamic,1") <=
             1.25 * loop_seconds("host", "uniform", t_lo, "static"));
  report("cancel_drain_within_100x_pool_launch",
         check_row.pool_seconds > 0.0 &&
             cancel_check_row.pool_seconds <= 100.0 * check_row.pool_seconds);
  report("chaselev_steal_not_worse_than_mutex_t8",
         chaselev_s <= 1.25 * locked_deque_s);
  report("mailbox_rtt_not_worse_than_locked",
         lockfree_rtt_s <= 1.25 * locked_rtt_s);
  checks.add({.name = "lockfree_within_2x_guard_band",
              .passed = lockfree_within_guard(),
              .recorded = false});
  checks.print();

  util::Json json(util::Json::Style::indented);
  json.begin_object().fields("bench", "ubench_schedulers", "smoke", smoke);
  json.key("loops").begin_array();
  for (const LoopRow& row : rows) {
    json.object("backend", row.backend, "profile", row.profile,
                "threads", row.threads, "schedule", row.schedule,
                "seconds", row.seconds);
  }
  json.end_array();
  for (const auto& [name, pool_rows] :
       {std::pair{"launch", &launch_rows}, std::pair{"cancel", &cancel_rows}}) {
    json.key(name).begin_array();
    for (const PoolRow& row : *pool_rows) {
      json.object("threads", row.threads, "spawn_seconds", row.spawn_seconds,
                  "pool_seconds", row.pool_seconds);
    }
    json.end_array();
  }
  json.key("devirt").object("iterations", devirt_total,
                                        "for_loop_seconds", wrapper_s,
                                        "for_each_seconds", inlined_s);
  json.key("lockfree").begin_object();
  json.key("steal_t8").object("chunks", steal_chunks,
                              "chaselev_seconds", chaselev_s,
                              "mutex_seconds", locked_deque_s);
  json.key("mailbox_rtt").object("round_trips", round_trips,
                                 "lockfree_seconds", lockfree_rtt_s,
                                 "locked_seconds", locked_rtt_s);
  json.end_object().key("checks").begin_object().fields(
      "hardware_threads", rt::hardware_threads(),
      "static_check_applicable", static_check_applicable);
  checks.write(json);
  json.end_object().end_object();
  bench::write_file("BENCH_rt.json", json);
  return checks.exit_code();
}
