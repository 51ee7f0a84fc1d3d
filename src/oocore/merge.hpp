#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace pblpar::oocore {

/// Loser-tree k-way merge over already-sorted sources — the classic
/// external-sort selection tree: each pop costs exactly one root-to-leaf
/// replay of ceil(log2 k) comparisons, against the 2*log2 k a binary heap
/// pays for its sift-down, and the tree layout is a flat array.
///
/// Sources expose `bool pull(T* out)` (false at end). Ties between equal
/// heads go to the lower source index, so merging individually
/// stable-sorted segments in segment order reproduces a stable_sort of
/// their concatenation — that tie-break is what makes the spillable
/// shuffle byte-identical to the in-memory path.
///
/// Handles any k >= 0: k == 0 is an always-empty merge, k == 1 a pass-
/// through, and non-power-of-two k uses the standard complete-tree
/// indexing (internal nodes [1, k), leaf j at node k + j).
template <class T, class Source, class Less = std::less<T>>
class LoserTree {
 public:
  explicit LoserTree(std::vector<Source*> sources, Less less = {})
      : sources_(std::move(sources)),
        less_(std::move(less)),
        k_(static_cast<int>(sources_.size())) {
    heads_.resize(sources_.size());
    alive_.assign(sources_.size(), 0);
    for (int j = 0; j < k_; ++j) {
      util::require(sources_[static_cast<std::size_t>(j)] != nullptr,
                    "LoserTree: null source");
      alive_[static_cast<std::size_t>(j)] =
          sources_[static_cast<std::size_t>(j)]->pull(
              &heads_[static_cast<std::size_t>(j)])
              ? 1
              : 0;
    }
    if (k_ == 0) {
      return;
    }
    if (k_ == 1) {
      winner_ = 0;
      return;
    }
    tree_.assign(static_cast<std::size_t>(k_), -1);
    winner_ = build(1);
  }

  /// Pop the smallest head. `source_index` (optional) reports which
  /// source it came from. False once every source is drained.
  bool pop(T* out, int* source_index = nullptr) {
    if (k_ == 0 || alive_[static_cast<std::size_t>(winner_)] == 0) {
      return false;
    }
    const int w = winner_;
    *out = std::move(heads_[static_cast<std::size_t>(w)]);
    if (source_index != nullptr) {
      *source_index = w;
    }
    alive_[static_cast<std::size_t>(w)] =
        sources_[static_cast<std::size_t>(w)]->pull(
            &heads_[static_cast<std::size_t>(w)])
            ? 1
            : 0;
    replay(w);
    return true;
  }

  /// A merge is itself a source: pop() under the name sources use.
  bool pull(T* out) { return pop(out); }

  int fan_in() const { return k_; }

 private:
  /// Does source `a` win the match against source `b`? Drained sources
  /// lose to live ones; between two drained (or two equal) sources the
  /// lower index wins, which is both the stability rule and a total
  /// order that keeps replays consistent.
  bool beats(int a, int b) const {
    const bool a_alive = alive_[static_cast<std::size_t>(a)] != 0;
    const bool b_alive = alive_[static_cast<std::size_t>(b)] != 0;
    if (!a_alive || !b_alive) {
      return a_alive || (!b_alive && a < b);
    }
    const T& ha = heads_[static_cast<std::size_t>(a)];
    const T& hb = heads_[static_cast<std::size_t>(b)];
    if (less_(ha, hb)) {
      return true;
    }
    if (less_(hb, ha)) {
      return false;
    }
    return a < b;
  }

  /// Play the initial tournament under `node`, storing losers at internal
  /// nodes and returning the subtree winner.
  int build(int node) {
    if (node >= k_) {
      return node - k_;  // leaf: its source index
    }
    const int left = build(2 * node);
    const int right = build(2 * node + 1);
    if (beats(right, left)) {
      tree_[static_cast<std::size_t>(node)] = left;
      return right;
    }
    tree_[static_cast<std::size_t>(node)] = right;
    return left;
  }

  /// Source `leaf` changed its head: replay its matches up the tree.
  void replay(int leaf) {
    int s = leaf;
    for (int t = (k_ + leaf) / 2; t >= 1; t /= 2) {
      if (beats(tree_[static_cast<std::size_t>(t)], s)) {
        std::swap(s, tree_[static_cast<std::size_t>(t)]);
      }
    }
    winner_ = s;
  }

  std::vector<Source*> sources_;
  Less less_;
  int k_;
  std::vector<T> heads_;
  std::vector<char> alive_;
  std::vector<int> tree_;  // internal nodes [1, k_): the loser's index
  int winner_ = 0;
};

}  // namespace pblpar::oocore
