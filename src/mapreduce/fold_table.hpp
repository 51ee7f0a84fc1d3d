#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oocore/spill.hpp"

namespace pblpar::mapreduce {

/// In-mapper combining (Lin & Dyer, "Data-Intensive Text Processing with
/// MapReduce", 2010, §3.1): one map worker's output for one partition,
/// folded per key as it is emitted instead of buffered as raw pairs. A
/// new key stores its value as is; a repeated key becomes
/// combine(key, {old, new}), a left fold in emission order — the same
/// associativity the combiner already needs to run on partial buckets.
/// The fold reuses one 2-element scratch vector, so it allocates nothing
/// per emission.
template <class K, class V>
class FoldTable {
 public:
  using CombineFn = std::function<V(const K&, const std::vector<V>&)>;

  /// What a node-based hash table pays per entry beyond the payload:
  /// next pointer, cached hash, bucket slot and allocator header.
  static constexpr std::int64_t kEntryOverheadBytes = 4 * sizeof(void*);

  /// `combine` must outlive the table.
  explicit FoldTable(const CombineFn& combine) : combine_(&combine) {}

  /// Fold one emission in. Returns how many bytes the table grew by: the
  /// new entry's payload plus kEntryOverheadBytes, or 0 for a fold.
  std::int64_t add(K key, V value) {
    auto [it, inserted] =
        entries_.try_emplace(std::move(key), std::move(value));
    if (!inserted) {
      scratch_[0] = std::move(it->second);
      scratch_[1] = std::move(value);  // try_emplace left it untouched
      it->second = (*combine_)(it->first, scratch_);
      return 0;
    }
    return static_cast<std::int64_t>(oocore::approx_bytes(it->first) +
                                     oocore::approx_bytes(it->second)) +
           kEntryOverheadBytes;
  }

  /// Move every entry to the end of `out`, sorted by key, and empty the
  /// table (its bucket array stays for the next fill).
  void drain_sorted(std::vector<std::pair<K, V>>& out) {
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    out.reserve(out.size() + entries_.size());
    while (!entries_.empty()) {
      auto node = entries_.extract(entries_.begin());
      out.emplace_back(std::move(node.key()), std::move(node.mapped()));
    }
    std::sort(out.begin() + first, out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

 private:
  const CombineFn* combine_;
  std::unordered_map<K, V> entries_;
  std::vector<V> scratch_ = std::vector<V>(2);
};

}  // namespace pblpar::mapreduce
