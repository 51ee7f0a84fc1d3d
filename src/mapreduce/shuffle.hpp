#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mapreduce/fold_table.hpp"
#include "oocore/spill.hpp"

namespace pblpar::mapreduce {

/// Orders (key, value) pairs by key alone — the one comparator of every
/// shuffle sort and merge, so equal keys keep their arrival order under
/// stable_sort and under the loser tree's lower-source-first tie-break.
struct KeyLess {
  template <class P>
  bool operator()(const P& a, const P& b) const {
    return a.first < b.first;
  }
};

/// Collects the (key, value) pairs a mapper emits. Workers reuse one
/// Emitter across records (clear() keeps the capacity), so steady-state
/// mapping does not allocate per record.
template <class K, class V>
class Emitter {
 public:
  void emit(K key, V value) {
    pairs_.emplace_back(std::move(key), std::move(value));
  }

  /// Drop the collected pairs but keep the buffer's capacity.
  void clear() { pairs_.clear(); }

  std::vector<std::pair<K, V>>& pairs() { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// The map side of the shuffle for one map worker (mapreduce::Job) or one
/// map task (cluster::DistJob): every emitted pair goes to partition
/// std::hash(key) % partitions. Without a combiner it is appended to that
/// partition's bucket in emission order; with one it folds into the
/// partition's FoldTable and reaches the bucket key-sorted, one pair per
/// key, when drain() runs.
template <class K, class V>
class PartitionSink {
 public:
  using Bucket = std::vector<std::pair<K, V>>;
  using CombineFn = typename FoldTable<K, V>::CombineFn;

  /// `combine` may be empty (no combiner) and must outlive the sink.
  /// `count_bytes` arms the byte account of raw pairs; fold tables always
  /// report theirs.
  PartitionSink(int partitions, const CombineFn& combine, bool count_bytes)
      : buckets_(static_cast<std::size_t>(partitions)),
        tables_(combine ? buckets_.size() : 0, FoldTable<K, V>(combine)),
        count_bytes_(count_bytes) {}

  /// Move every pair `emitter` holds into its partition. Returns how many
  /// bytes the sink grew by: what FoldTable::add reports with a combiner,
  /// otherwise approx_bytes of each raw pair when count_bytes is armed
  /// and 0 when it is not.
  std::int64_t add(Emitter<K, V>& emitter) {
    std::int64_t grew = 0;
    for (auto& [key, value] : emitter.pairs()) {
      const std::size_t partition = std::hash<K>{}(key) % buckets_.size();
      if (!tables_.empty()) {
        grew += tables_[partition].add(std::move(key), std::move(value));
        continue;
      }
      if (count_bytes_) {
        grew += static_cast<std::int64_t>(oocore::approx_bytes(key) +
                                          oocore::approx_bytes(value));
      }
      buckets_[partition].emplace_back(std::move(key), std::move(value));
    }
    return grew;
  }

  /// Empty every fold table into its bucket, key-sorted. A no-op without
  /// a combiner and for tables that are already empty.
  void drain() {
    for (std::size_t p = 0; p < tables_.size(); ++p) {
      tables_[p].drain_sorted(buckets_[p]);
    }
  }

  /// Bucket `p`, key-stable-sorted (call after drain()): raw pairs sort
  /// here with equal keys in emission order; a drained table is already
  /// sorted.
  Bucket& sorted(std::size_t p) {
    if (tables_.empty()) {
      std::stable_sort(buckets_[p].begin(), buckets_[p].end(), KeyLess{});
    }
    return buckets_[p];
  }

  std::vector<Bucket>& buckets() { return buckets_; }
  bool folding() const { return !tables_.empty(); }

 private:
  std::vector<Bucket> buckets_;
  std::vector<FoldTable<K, V>> tables_;
  bool count_bytes_;
};

/// A key-sorted bucket as a pull source (the interface of
/// oocore::LoserTree's sources): its pairs front to back, by move.
template <class P>
struct BucketSource {
  std::vector<P>* bucket = nullptr;
  std::size_t next = 0;

  bool pull(P* out) {
    if (next == bucket->size()) {
      return false;
    }
    *out = std::move((*bucket)[next++]);
    return true;
  }
};

/// The reduce side of the shuffle: group a key-sorted stream of pairs
/// into runs of equal keys and append (key, reduce(key, values)) for each
/// run, in stream order. `source.pull(&pair)` yields the stream and
/// returns false at its end. Returns how many pairs the stream held.
template <class V, class K, class Out, class Source, class ReduceFn>
std::int64_t reduce_sorted(Source& source, const ReduceFn& reduce,
                           std::vector<std::pair<K, Out>>& out) {
  std::vector<V> values;
  std::pair<K, V> record;
  std::int64_t pulled = 0;
  bool have = source.pull(&record);
  while (have) {
    K key = std::move(record.first);
    values.clear();
    do {
      ++pulled;
      values.push_back(std::move(record.second));
    } while ((have = source.pull(&record)) && !(key < record.first));
    auto result = reduce(key, values);
    out.emplace_back(std::move(key), std::move(result));
  }
  return pulled;
}

}  // namespace pblpar::mapreduce
