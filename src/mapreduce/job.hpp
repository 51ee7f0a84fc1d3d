#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mapreduce/shuffle.hpp"
#include "oocore/io.hpp"
#include "oocore/merge.hpp"
#include "oocore/scratch.hpp"
#include "oocore/spill.hpp"
#include "rt/for_each.hpp"
#include "rt/parallel.hpp"
#include "util/error.hpp"

namespace pblpar::mapreduce {

/// What a Job does when its deadline fires during the map phase.
enum class DeadlinePolicy {
  /// Rethrow the region's rt::Cancelled: the job produces nothing.
  Abort,

  /// Keep whatever records finished mapping and run shuffle + reduce over
  /// them. Members stop at chunk boundaries only, so every kept record is
  /// whole — the salvaged output equals a full run of the job over
  /// exactly the completed record set (never a torn record, and grouping
  /// order stays the deterministic worker-order scan).
  Salvage,
};

/// Outcome metadata of one Job::run, for callers that opt into deadlines,
/// a shuffle memory budget, or tracing.
struct RunReport {
  bool deadline_hit = false;  // map cut short (deadline or cancel token)
  std::int64_t mapped_records = 0;  // records fully mapped into the output
  std::int64_t total_records = 0;

  // Spillable-shuffle accounting (zero unless memory_budget_bytes is set
  // and the budget actually forced spills).
  std::int64_t spilled_runs = 0;   // shuffle run files written
  std::int64_t spilled_bytes = 0;  // bytes those runs held on disk

  // Region profiles when Job::traced() is on (SpillEvent / MergeEvent
  // records land here alongside the usual chunk timeline).
  std::shared_ptr<const rt::RunProfile> map_profile;
  std::shared_ptr<const rt::RunProfile> reduce_profile;
};

/// An in-memory, multi-threaded MapReduce job, after the model in the
/// course's Assignment 5 reading ("Introduction to Parallel Programming
/// and MapReduce"): map over input records, shuffle by key, reduce each
/// key's value list.
///
/// K1/V1: input key/value. K2/V2: intermediate. VOut: reducer output
/// (defaults to V2). K2 must be hashable (std::hash) and ordered
/// (operator<); output is sorted by key, so runs are deterministic.
template <class K1, class V1, class K2, class V2, class VOut = V2>
class Job {
 public:
  using MapFn = std::function<void(const K1&, const V1&, Emitter<K2, V2>&)>;
  using ReduceFn = std::function<VOut(const K2&, const std::vector<V2>&)>;
  using CombineFn = std::function<V2(const K2&, const std::vector<V2>&)>;

  Job& map(MapFn fn) {
    map_fn_ = std::move(fn);
    return *this;
  }
  Job& reduce(ReduceFn fn) {
    reduce_fn_ = std::move(fn);
    return *this;
  }

  /// Optional combiner: pre-reduces each map worker's local output before
  /// the shuffle. It runs as a left fold in emission order — each key's
  /// entry becomes combine(key, {entry, next value}) as values arrive —
  /// so it must be associative, and combine(key, {v}) must equal v.
  Job& combine(CombineFn fn) {
    combine_fn_ = std::move(fn);
    return *this;
  }

  /// Worker count; 0 (the default) means one worker per hardware thread
  /// (rt::hardware_threads()), resolved at run().
  Job& threads(int count) {
    util::require(count >= 0,
                  "Job::threads: count must be >= 0 (0 = hardware threads)");
    num_threads_ = count;
    return *this;
  }

  /// Partition count; 0 (the default) means one partition per worker
  /// thread, resolved at run() — more partitions than reducers only adds
  /// shuffle overhead, fewer starves the reduce phase.
  Job& reducers(int count) {
    util::require(
        count >= 0,
        "Job::reducers: count must be >= 0 (0 = one per worker thread)");
    num_reducers_ = count;
    return *this;
  }

  /// Cap the shuffle's in-memory working set: once the map phase's
  /// buffered output exceeds `bytes` across all workers (each worker
  /// tracks budget/threads of it), every worker spills its sorted
  /// buckets to scratch run files, and the reduce phase's k-way merge
  /// reads those runs ahead of each worker's leftover bucket. Without
  /// a combiner the budget counts every emitted (key, value) pair; with
  /// one it counts the distinct keys of the fold tables, each entry's
  /// payload plus FoldTable::kEntryOverheadBytes of node overhead. Output
  /// is byte-identical to the unbudgeted path. Not calling this (the
  /// default) keeps the shuffle fully in memory; a zero or negative
  /// budget is rejected loudly rather than silently meaning "unlimited" —
  /// derive one with oocore::budget_from_multiplier if you want
  /// "fraction of the dataset" semantics.
  Job& memory_budget_bytes(std::int64_t bytes) {
    util::require(bytes > 0,
                  "Job::memory_budget_bytes: budget must be > 0 bytes (do "
                  "not call it to keep the shuffle fully in memory)");
    shuffle_budget_bytes_ = bytes;
    return *this;
  }

  /// Seeded I/O fault injection (short writes, slow reads) applied to
  /// every spill file this job writes or merges — exercises the oocore
  /// retry paths deterministically.
  Job& io_chaos(oocore::IoChaos chaos) {
    chaos.validate();
    io_chaos_ = chaos;
    return *this;
  }

  /// Record rt traces for the map and reduce regions into
  /// RunReport::map_profile / reduce_profile; spill and merge activity
  /// shows up there as SpillEvent / MergeEvent rows.
  Job& traced(bool on = true) {
    traced_ = on;
    return *this;
  }

  /// Job-level budget in host seconds, enforced cooperatively at
  /// chunk-claim boundaries of the map phase; what happens when it fires
  /// is `policy`. With Abort, a map phase that finishes in time passes
  /// the remaining budget on to the reduce phase; with Salvage, the
  /// shuffle/reduce over the kept records always runs to completion (a
  /// salvaged job must still yield a usable result).
  Job& deadline(double seconds, DeadlinePolicy policy = DeadlinePolicy::Abort) {
    util::require(std::isfinite(seconds) && seconds > 0.0,
                  "Job::deadline: need a finite deadline > 0");
    deadline_s_ = seconds;
    deadline_policy_ = policy;
    return *this;
  }

  /// Policy applied when the deadline *or* the cancel token cuts the map
  /// phase, without arming a deadline — lets a purely token-cancellable
  /// job opt into Salvage. deadline() sets the same policy; whichever is
  /// called last wins.
  Job& cut_policy(DeadlinePolicy policy) {
    deadline_policy_ = policy;
    return *this;
  }

  /// External cooperative cancellation, polled at the map phase's
  /// chunk-claim boundaries like a deadline. The deadline policy decides
  /// what a fired token means: Abort rethrows rt::Cancelled (and also
  /// arms the token on the reduce phase); Salvage keeps the fully-mapped
  /// records and always finishes shuffle + reduce over them —
  /// RunReport::deadline_hit covers both a deadline and a token firing.
  Job& cancellable(rt::CancelToken token) {
    util::require(token.valid(),
                  "Job::cancellable: token is not connected to a "
                  "CancelSource (default-constructed tokens never fire)");
    cancel_token_ = std::move(token);
    return *this;
  }

  /// Execute the job over `inputs` and return (key, reduced value) pairs
  /// sorted by key.
  std::vector<std::pair<K2, VOut>> run(
      const std::vector<std::pair<K1, V1>>& inputs) const {
    return run(inputs, nullptr);
  }

  /// run() that also reports how the deadline played out. `report` may be
  /// null; it is only written on successful return (an Abort that fires
  /// throws rt::Cancelled instead).
  std::vector<std::pair<K2, VOut>> run(
      const std::vector<std::pair<K1, V1>>& inputs, RunReport* report) const {
    util::require(map_fn_ != nullptr, "Job::run: map function not set");
    util::require(reduce_fn_ != nullptr, "Job::run: reduce function not set");
    const auto job_start = std::chrono::steady_clock::now();

    const int threads =
        num_threads_ > 0 ? num_threads_ : rt::hardware_threads();
    const int reducers = num_reducers_ > 0 ? num_reducers_ : threads;

    // --- Map phase: each worker fills its own PartitionSink, so there is
    // no shared mutable state across threads (CP.3). Records are dealt by
    // work stealing: expensive records (long documents, heavy parses)
    // stop being a tail-latency problem because idle workers migrate the
    // remaining chunks. With a combiner, emissions fold into the sink's
    // per-partition tables and reach its buckets key-sorted, one entry
    // per key, when the tables drain (spill, end of map, salvage).
    using Sink = PartitionSink<K2, V2>;
    const bool spilling = shuffle_budget_bytes_ > 0;
    std::vector<Sink> sinks(static_cast<std::size_t>(threads),
                            Sink(reducers, combine_fn_, spilling));

    // Both phases (and every job this process runs after this one) share
    // the persistent host worker pool: warming it here moves one-time
    // thread creation out of the map phase, so a job's cost is map +
    // shuffle + reduce, not spawn + map + spawn + shuffle + reduce.
    rt::ParallelConfig map_config = rt::ParallelConfig::host(threads);
    if (deadline_s_ > 0.0) {
      map_config = map_config.deadline(deadline_s_);
    }
    if (cancel_token_.valid()) {
      map_config = map_config.cancellable(cancel_token_);
    }
    if (traced_) {
      map_config = map_config.traced();
    }
    rt::warm_up(map_config);

    // Spillable-shuffle state. The ScratchDir guard owns every run file
    // this job writes: normal return, a thrown rt::Cancelled (Abort) and
    // any I/O error all unwind through it, so a cancel drain never strands
    // spill files on disk. An in-memory job writes no runs.
    const std::int64_t worker_budget =
        spilling ? std::max<std::int64_t>(shuffle_budget_bytes_ / threads, 1)
                 : 0;
    std::optional<oocore::ScratchDir> scratch;
    if (spilling) {
      scratch.emplace("pblpar-shuffle");
    }
    std::vector<std::vector<std::vector<ShuffleRun>>> worker_runs(
        static_cast<std::size_t>(threads),
        std::vector<std::vector<ShuffleRun>>(
            static_cast<std::size_t>(reducers)));
    std::atomic<std::int64_t> spilled_runs{0};
    std::atomic<std::int64_t> spilled_bytes{0};

    bool deadline_hit = false;
    std::int64_t mapped_records = static_cast<std::int64_t>(inputs.size());
    std::shared_ptr<const rt::RunProfile> map_profile;
    try {
      rt::RunResult mapped = rt::parallel(map_config, [&](rt::TeamContext&
                                                              tc) {
        const auto tid = static_cast<std::size_t>(tc.thread_num());
        Sink& sink = sinks[tid];
        Emitter<K2, V2> emitter;  // reused: clear() keeps the capacity
        // When a budget is armed or the tables fold, the first-record
        // reserve() is skipped: its estimate assumes the whole input's
        // emissions stay resident as raw pairs.
        bool reserved = spilling || sink.folding();
        std::int64_t buffered_bytes = 0;
        std::uint64_t spill_seq = 0;
        const std::uint64_t worker_salt = static_cast<std::uint64_t>(tid)
                                          << 32;

        // Spill every non-empty bucket as one sorted run file per
        // partition, then reset the byte account. Runs are replayed in
        // (worker, spill order, leftover-last) order at reduce time —
        // concatenating them reproduces this worker's emission order,
        // which is what makes the merged shuffle byte-identical whatever
        // the budget.
        const auto spill_worker = [&]() {
          const double start_s = tc.trace_now();
          std::int64_t batch_runs = 0;
          std::int64_t batch_records = 0;
          std::int64_t batch_bytes = 0;
          sink.drain();
          for (std::size_t p = 0; p < sink.buckets().size(); ++p) {
            auto& bucket = sink.sorted(p);
            if (bucket.empty()) {
              continue;
            }
            ShuffleRun run;
            run.path = scratch->next_path("shuffle");
            oocore::SpillWriter file(run.path, kSpillBufferBytes, io_chaos_,
                                     worker_salt + spill_seq);
            oocore::RunWriter<std::pair<K2, V2>> writer(file);
            for (const auto& pair : bucket) {
              writer.push(pair);
            }
            file.close();
            run.bytes = file.bytes_written();
            batch_runs += 1;
            batch_records += writer.records();
            batch_bytes += run.bytes;
            worker_runs[tid][p].push_back(std::move(run));
            ++spill_seq;
            bucket.clear();  // keeps capacity: the worker's working set
          }
          buffered_bytes = 0;
          spilled_runs.fetch_add(batch_runs, std::memory_order_relaxed);
          spilled_bytes.fetch_add(batch_bytes, std::memory_order_relaxed);
          if (rt::TraceRecorder* tracer = tc.tracer()) {
            tracer->record_spill(tc.thread_num(), "shuffle", batch_records,
                                 batch_bytes, start_s, tc.trace_now());
          }
        };

        rt::for_each(
            tc, rt::Range::upto(static_cast<std::int64_t>(inputs.size())),
            rt::Schedule::steal(), [&](std::int64_t i) {
              const auto& [key, value] = inputs[static_cast<std::size_t>(i)];
              emitter.clear();
              map_fn_(key, value, emitter);
              if (!reserved && !emitter.pairs().empty()) {
                // First-record estimate: assume every record emits about
                // this many pairs, this worker maps ~1/threads of the
                // input, and the hash spreads pairs evenly over buckets.
                reserved = true;
                const std::size_t estimate =
                    emitter.pairs().size() *
                        (inputs.size() / static_cast<std::size_t>(threads) +
                         1) /
                        static_cast<std::size_t>(reducers) +
                    1;
                for (auto& bucket : sink.buckets()) {
                  bucket.reserve(estimate);
                }
              }
              buffered_bytes += sink.add(emitter);
              // Checked per record, not per pair: the budget overshoot is
              // bounded by a single record's emissions.
              if (spilling && buffered_bytes >= worker_budget) {
                spill_worker();
              }
            });
        sink.drain();
      });
      map_profile = mapped.profile;
    } catch (const rt::Cancelled& cancelled) {
      if (deadline_policy_ == DeadlinePolicy::Abort) {
        throw;  // ~ScratchDir drops any runs spilled before the cut
      }
      // Salvage: each record's emissions land in its worker's sink within
      // its own iteration and members only stop at chunk boundaries, so
      // the sinks hold exactly the completed records — never a torn one.
      // Draining (a no-op for a sink its worker already drained) puts
      // every kept record into the leftover buckets.
      for (Sink& sink : sinks) {
        sink.drain();
      }
      deadline_hit = true;
      mapped_records = cancelled.total_completed();
      map_profile = cancelled.profile();
    }

    // --- Shuffle + reduce phase: one task per partition, in parallel.
    std::vector<std::vector<std::pair<K2, VOut>>> partition_outputs(
        static_cast<std::size_t>(reducers));
    rt::ParallelConfig reduce_config =
        rt::ParallelConfig::host(std::min(threads, reducers));
    if (cancel_token_.valid() &&
        deadline_policy_ == DeadlinePolicy::Abort) {
      // Salvage promises a usable result, so only Abort lets the token
      // cut the reduce phase too.
      reduce_config = reduce_config.cancellable(cancel_token_);
    }
    if (deadline_s_ > 0.0 && deadline_policy_ == DeadlinePolicy::Abort) {
      // Pass what is left of the budget to the reduce phase; an already
      // overspent budget cancels at the first chunk boundary.
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - job_start)
                                 .count();
      reduce_config =
          reduce_config.deadline(std::max(deadline_s_ - elapsed, 1e-9));
    }
    if (traced_) {
      reduce_config = reduce_config.traced();
    }
    rt::RunResult reduced_result = rt::parallel(reduce_config, [&](
                                                    rt::TeamContext& tc) {
      rt::for_loop(
          tc, rt::Range::upto(reducers), rt::Schedule::dynamic(1),
          [&](std::int64_t p) {
            partition_outputs[static_cast<std::size_t>(p)] = merge_partition(
                tc, sinks, worker_runs, static_cast<std::size_t>(p),
                worker_budget);
          });
    });

    // --- Merge: every partition is already key-sorted (the shuffle sorts
    // it), so a balanced merge cascade — O(n log k) comparisons instead
    // of re-sorting the concatenation — yields the same sorted output.
    // Hash partitioning keeps key sets disjoint across partitions, so the
    // merged order is exactly the old concatenate-and-sort order.
    while (partition_outputs.size() > 1) {
      std::vector<std::vector<std::pair<K2, VOut>>> next;
      next.reserve((partition_outputs.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < partition_outputs.size(); i += 2) {
        auto& left = partition_outputs[i];
        auto& right = partition_outputs[i + 1];
        std::vector<std::pair<K2, VOut>> merged;
        merged.reserve(left.size() + right.size());
        std::merge(
            std::make_move_iterator(left.begin()),
            std::make_move_iterator(left.end()),
            std::make_move_iterator(right.begin()),
            std::make_move_iterator(right.end()), std::back_inserter(merged),
            KeyLess{});
        next.push_back(std::move(merged));
      }
      if (partition_outputs.size() % 2 == 1) {
        next.push_back(std::move(partition_outputs.back()));
      }
      partition_outputs = std::move(next);
    }
    if (report != nullptr) {
      report->deadline_hit = deadline_hit;
      report->mapped_records = mapped_records;
      report->total_records = static_cast<std::int64_t>(inputs.size());
      report->spilled_runs = spilled_runs.load(std::memory_order_relaxed);
      report->spilled_bytes = spilled_bytes.load(std::memory_order_relaxed);
      report->map_profile = std::move(map_profile);
      report->reduce_profile = reduced_result.profile;
    }
    return std::move(partition_outputs.front());
  }

 private:
  /// One spilled shuffle run: a key-stable-sorted slice of a single
  /// worker's output for a single partition.
  struct ShuffleRun {
    std::filesystem::path path;
    std::int64_t bytes = 0;
  };

  /// Buffered-I/O block size for spill writes. Reads derive theirs from
  /// the worker budget and fan-in in merge_partition.
  static constexpr std::size_t kSpillBufferBytes = std::size_t{128} << 10;

  /// Reduce one partition: a loser-tree merge over its run files (in
  /// worker order, then each worker's spill order) plus each worker's
  /// leftover bucket as that worker's last source, fed to reduce_sorted.
  /// An in-memory job is the same merge with zero run files. Every source
  /// is key-stable-sorted and the tree breaks ties by lower source index,
  /// so the merged stream is a stable_sort of the worker-order
  /// concatenation — each key's values arrive in worker scan order, and
  /// the output is byte-identical whatever the budget.
  std::vector<std::pair<K2, VOut>> merge_partition(
      rt::TeamContext& tc, std::vector<PartitionSink<K2, V2>>& sinks,
      const std::vector<std::vector<std::vector<ShuffleRun>>>& worker_runs,
      std::size_t partition, std::int64_t worker_budget) const {
    using P = std::pair<K2, V2>;
    struct RunFile {
      oocore::SpillReader bytes;
      oocore::RunReader<P> records;
      RunFile(const std::filesystem::path& path, std::size_t buffer_bytes,
              const oocore::IoChaos& chaos, std::uint64_t salt)
          : bytes(path, buffer_bytes, chaos, salt), records(bytes) {}
    };
    struct Source {
      std::unique_ptr<RunFile> file;  // null: a worker's leftover bucket
      BucketSource<P> leftover;
      bool pull(P* out) {
        return file != nullptr ? file->records.pull(out) : leftover.pull(out);
      }
    };

    std::size_t file_count = 0;
    for (const auto& runs : worker_runs) {
      file_count += runs[partition].size();
    }
    // One merging partition per worker at a time, so the open runs' read
    // buffers must share this worker's slice of the budget.
    const std::size_t buffer_bytes = std::clamp<std::size_t>(
        static_cast<std::size_t>(worker_budget) /
            std::max<std::size_t>(file_count, 1),
        std::size_t{4} << 10, std::size_t{128} << 10);

    const double start_s = tc.trace_now();
    std::vector<Source> sources;
    sources.reserve(file_count + sinks.size());
    std::int64_t in_bytes = 0;
    std::uint64_t salt = partition << 16;
    for (std::size_t w = 0; w < sinks.size(); ++w) {
      for (const ShuffleRun& run : worker_runs[w][partition]) {
        sources.push_back({std::make_unique<RunFile>(run.path, buffer_bytes,
                                                     io_chaos_, salt++),
                           {}});
        in_bytes += run.bytes;
      }
      std::vector<P>& leftover = sinks[w].sorted(partition);
      if (!leftover.empty()) {
        sources.push_back({nullptr, {&leftover}});
      }
    }
    std::vector<Source*> source_ptrs;
    source_ptrs.reserve(sources.size());
    for (Source& source : sources) {
      source_ptrs.push_back(&source);
    }
    oocore::LoserTree<P, Source, KeyLess> tree(std::move(source_ptrs));

    std::vector<std::pair<K2, VOut>> reduced;
    const std::int64_t merged_records =
        reduce_sorted<V2>(tree, reduce_fn_, reduced);
    if (file_count > 0) {
      if (rt::TraceRecorder* tracer = tc.tracer()) {
        tracer->record_merge(tc.thread_num(),
                             static_cast<int>(sources.size()), merged_records,
                             in_bytes, start_s, tc.trace_now());
      }
    }
    return reduced;
  }

  MapFn map_fn_;
  ReduceFn reduce_fn_;
  CombineFn combine_fn_;
  int num_threads_ = 0;   // 0 = rt::hardware_threads() at run()
  int num_reducers_ = 0;  // 0 = one partition per worker thread at run()
  double deadline_s_ = 0.0;  // 0 = no deadline
  DeadlinePolicy deadline_policy_ = DeadlinePolicy::Abort;
  rt::CancelToken cancel_token_;  // invalid = not externally cancellable
  std::int64_t shuffle_budget_bytes_ = 0;  // 0 = fully in-memory shuffle
  oocore::IoChaos io_chaos_;               // applied to spill files only
  bool traced_ = false;
};

}  // namespace pblpar::mapreduce
