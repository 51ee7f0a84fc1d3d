#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pblpar::mapreduce {

/// Orders (key, value) pairs by key alone — the one comparator of every
/// shuffle sort and merge, so equal keys keep their arrival order under
/// sort_by_key and under the loser tree's lower-source-first tie-break.
struct KeyLess {
  template <class P>
  bool operator()(const P& a, const P& b) const {
    return a.first < b.first;
  }
};

namespace detail {

/// The first 8 bytes of `key`, big-endian and zero-padded: unsigned
/// comparison of two prefixes agrees with std::string's operator< (a
/// memcmp order) whenever the prefixes differ.
inline std::uint64_t key_prefix(const std::string& key) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(key.data());
  const std::size_t length = std::min<std::size_t>(key.size(), 8);
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < length; ++i) {
    prefix |= static_cast<std::uint64_t>(bytes[i]) << (56 - 8 * i);
  }
  return prefix;
}

}  // namespace detail

/// Stable-sort `bucket[first, end)` by key: equal keys keep their order.
/// String keys sort (prefix, index) slots — one integer compare settles
/// most pairs, equal prefixes fall back to operator< and then to the
/// index — and the bucket is then permuted once in place, so each pair
/// moves once instead of at every merge level. Other key types use
/// std::stable_sort with KeyLess.
template <class K, class V>
void sort_by_key(std::vector<std::pair<K, V>>& bucket, std::size_t first) {
  if constexpr (std::is_same_v<K, std::string>) {
    const std::size_t count = bucket.size() - first;
    if (count < 2) {
      return;
    }
    struct Slot {
      std::uint64_t prefix;
      std::size_t index;  // offset from `first`
    };
    std::vector<Slot> slots(count);
    for (std::size_t i = 0; i < count; ++i) {
      slots[i] = {detail::key_prefix(bucket[first + i].first), i};
    }
    std::sort(slots.begin(), slots.end(), [&](const Slot& a, const Slot& b) {
      if (a.prefix != b.prefix) {
        return a.prefix < b.prefix;
      }
      const K& ka = bucket[first + a.index].first;
      const K& kb = bucket[first + b.index].first;
      if (ka < kb) {
        return true;
      }
      if (kb < ka) {
        return false;
      }
      return a.index < b.index;
    });
    // Position i takes the pair at slots[i].index: walk each cycle of
    // that permutation with one pair held aside, marking visited slots
    // as fixed points.
    for (std::size_t i = 0; i < count; ++i) {
      if (slots[i].index == i) {
        continue;
      }
      std::pair<K, V> held = std::move(bucket[first + i]);
      std::size_t at = i;
      while (true) {
        const std::size_t from = slots[at].index;
        slots[at].index = at;
        if (from == i) {
          bucket[first + at] = std::move(held);
          break;
        }
        bucket[first + at] = std::move(bucket[first + from]);
        at = from;
      }
    }
  } else {
    std::stable_sort(bucket.begin() + static_cast<std::ptrdiff_t>(first),
                     bucket.end(), KeyLess{});
  }
}

}  // namespace pblpar::mapreduce
