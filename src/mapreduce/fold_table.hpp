#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "mapreduce/key_order.hpp"
#include "oocore/spill.hpp"
#include "util/error.hpp"

namespace pblpar::mapreduce {

/// In-mapper combining (Lin & Dyer, "Data-Intensive Text Processing with
/// MapReduce", 2010, §3.1): one map worker's output for one partition,
/// folded per key as it is emitted instead of buffered as raw pairs. A
/// new key stores its value as is; a repeated key becomes
/// combine(key, {old, new}), a left fold in emission order — the same
/// associativity the combiner already needs to run on partial buckets.
/// The fold reuses one 2-element scratch vector, so it allocates nothing
/// per emission.
///
/// The table is flat: the entries sit in one vector in insertion order,
/// their hashes in a parallel vector, and a power-of-two array of entry
/// indices (0 = empty, else index + 1) is probed linearly at a load
/// factor of at most ½. The caller hashes each key once and passes the
/// hash in (PartitionSink picks the partition with the same value), and
/// a drain hands the entry vector over and zeroes the slots, so a refill
/// after a spill allocates nothing until it outgrows the last fill.
template <class K, class V>
class FoldTable {
 public:
  using CombineFn = std::function<V(const K&, const std::vector<V>&)>;

  /// What the spill budget charges per entry beyond the payload. It was
  /// sized for a node-based hash table (next pointer, cached hash, bucket
  /// slot, allocator header); the flat layout pays less — an 8-byte hash,
  /// about 8 bytes of slots and the entry vector's slack — so the charge
  /// stays an upper bound and budgeted jobs spill where they always did.
  static constexpr std::int64_t kEntryOverheadBytes = 4 * sizeof(void*);

  /// `combine` must outlive the table.
  explicit FoldTable(const CombineFn& combine) : combine_(&combine) {}

  /// Fold one emission in; `hash` must be std::hash<K>{}(key). Returns how
  /// many bytes the table grew by: the new entry's payload plus
  /// kEntryOverheadBytes, or 0 for a fold.
  std::int64_t add(std::size_t hash, K key, V value) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      grow();
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = spread(hash);; at = (at + 1) & mask) {
      const std::uint32_t slot = slots_[at];
      if (slot == 0) {
        slots_[at] = static_cast<std::uint32_t>(entries_.size() + 1);
        hashes_.push_back(hash);
        const auto& entry =
            entries_.emplace_back(std::move(key), std::move(value));
        return static_cast<std::int64_t>(oocore::approx_bytes(entry.first) +
                                         oocore::approx_bytes(entry.second)) +
               kEntryOverheadBytes;
      }
      auto& entry = entries_[slot - 1];
      if (hashes_[slot - 1] == hash && entry.first == key) {
        scratch_[0] = std::move(entry.second);
        scratch_[1] = std::move(value);
        entry.second = (*combine_)(entry.first, scratch_);
        return 0;
      }
    }
  }

  /// Move every entry to the end of `out`, sorted by key, and empty the
  /// table. An empty `out` trades buffers with the entry vector, so the
  /// table refills into `out`'s old capacity; the slot array keeps its
  /// size.
  void drain_sorted(std::vector<std::pair<K, V>>& out) {
    const std::size_t first = out.size();
    if (out.empty()) {
      out.swap(entries_);
    } else {
      out.insert(out.end(), std::make_move_iterator(entries_.begin()),
                 std::make_move_iterator(entries_.end()));
    }
    entries_.clear();
    hashes_.clear();
    std::fill(slots_.begin(), slots_.end(), 0U);
    sort_by_key(out, first);
  }

 private:
  /// Home slot of `hash`: the top bits of a Fibonacci-multiplied hash.
  /// Within one partition every hash leaves the same remainder mod the
  /// partition count, so the raw low bits would cluster.
  std::size_t spread(std::size_t hash) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(hash) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Double the slot array (16 at first) and re-place every entry from
  /// its stored hash.
  void grow() {
    util::ensure(entries_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "FoldTable: more than 2^32 - 1 distinct keys");
    const std::size_t capacity = std::max<std::size_t>(16, slots_.size() * 2);
    slots_.assign(capacity, 0U);
    shift_ = 64 - std::countr_zero(capacity);
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < hashes_.size(); ++i) {
      std::size_t at = spread(hashes_[i]);
      while (slots_[at] != 0) {
        at = (at + 1) & mask;
      }
      slots_[at] = static_cast<std::uint32_t>(i + 1);
    }
  }

  const CombineFn* combine_;
  std::vector<std::pair<K, V>> entries_;  // insertion order
  std::vector<std::size_t> hashes_;       // hashes_[i] hashes entries_[i]
  std::vector<std::uint32_t> slots_;      // 0 = empty, else entry index + 1
  int shift_ = 64;                        // 64 - log2(slots_.size())
  std::vector<V> scratch_ = std::vector<V>(2);
};

}  // namespace pblpar::mapreduce
