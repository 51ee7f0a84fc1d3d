#pragma once

// The campus-server benchmark's reporting rules, kept apart from the
// workloads so they can be tested alone: which percentile a sample
// supports, how a job's time splits into layers, and how a job's output
// is compared with its reference.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rt/trace.hpp"

namespace campusbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail a handful of outliers.
inline constexpr std::size_t kMinBeyond = 10;

/// One percentile of a sample, with the counts that back it.
struct Quantile {
  double percentile = 0.0;  // in [0, 100]
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the one read

  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the sample at or below it. An empty sample reads 0 with no support.
inline Quantile percentile(std::vector<double> samples, double p) {
  Quantile q;
  q.percentile = p;
  q.samples = samples.size();
  if (samples.empty()) {
    return q;
  }
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p / 100.0 * n), 1.0, n));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  q.value = samples[rank - 1];
  q.beyond = samples.size() - rank;
  return q;
}

inline Quantile median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile with at least kMinBeyond samples beyond it: the
/// sample ranked kMinBeyond + 1 from the top. A sample too small for that
/// reads its maximum with no support.
inline Quantile highest_supported(std::vector<double> samples) {
  Quantile q;
  q.samples = samples.size();
  if (samples.empty()) {
    return q;
  }
  const std::size_t rank = samples.size() > kMinBeyond
                               ? samples.size() - kMinBeyond
                               : samples.size();
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  q.value = samples[rank - 1];
  q.beyond = samples.size() - rank;
  q.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(samples.size());
  return q;
}

/// One figure per window of a run split by time into `count` equal
/// windows of [0, span): `stat` of the values whose time falls in each
/// non-empty window. On a shared virtual machine scheduling noise comes in
/// stretches of seconds; reading a run window by window lets a figure set
/// the run's worst stretches aside.
template <class T, class Stat>
std::vector<double> per_window(const std::vector<std::pair<double, T>>& timed,
                               double span, int count, Stat&& stat) {
  std::vector<std::vector<T>> windows(static_cast<std::size_t>(count));
  for (const auto& [time, value] : timed) {
    const auto index = static_cast<std::size_t>(std::clamp(
        time / span * static_cast<double>(count), 0.0,
        static_cast<double>(count - 1)));
    windows[index].push_back(value);
  }
  std::vector<double> figures;
  for (const std::vector<T>& window : windows) {
    if (!window.empty()) {
      figures.push_back(stat(window));
    }
  }
  return figures;
}

/// "p99=1.234e-03 s (n=5000, 50 beyond)", or with "UNSUPPORTED" appended
/// when fewer than kMinBeyond samples lie beyond it.
inline std::string describe(const Quantile& q, const char* unit) {
  char text[160];
  std::snprintf(text, sizeof(text), "p%.4g=%.6g %s (n=%zu, %zu beyond)%s",
                q.percentile, q.value, unit, q.samples, q.beyond,
                q.supported() ? "" : " UNSUPPORTED");
  return text;
}

/// The layers a job's time is split into. Each is a self time: the part
/// of a span that its child spans do not cover, so the layers of one job
/// add up to its sojourn and whatever is left is unattributed.
enum class Layer : std::size_t {
  Client,           // due time -> submit() call (generator or client late)
  ServiceSubmit,    // the submit() call
  ServiceDispatch,  // submit() return -> job body start: queue + hand-off
  ServiceFinalize,  // job body end -> Done
  Rt,               // rt regions minus their members' chunk work
  Patternlet,       // patternlet loop chunks
  Drugdesign,       // ligand scoring chunks
  Mapreduce,        // mapreduce::Job::run outside its two regions
  MapreduceMap,     // map chunks minus spills
  MapreduceReduce,  // reduce chunks minus merges
  OocoreSpill,      // SpillEvent time inside map chunks
  OocoreMerge,      // MergeEvent time (the streamed reduce included)
  Sim,              // mp::SimWorld::run: cluster + mp on simulated ranks
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "client",         "service.submit",  "service.dispatch",
      "service.finalize", "rt",            "patternlet",
      "drugdesign",     "mapreduce",       "mapreduce.map",
      "mapreduce.reduce", "oocore.spill",  "oocore.merge",
      "sim"};
  return kNames[static_cast<std::size_t>(layer)];
}

using LayerTimes = std::array<double, kLayerCount>;

/// Sums job times and their per-layer split over many jobs. The
/// unattributed remainder is job time minus every layer's time.
class LayerAccount {
 public:
  void add_job(double job_s, const LayerTimes& layers) {
    ++jobs_;
    job_s_ += job_s;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      layer_s_[i] += layers[i];
    }
  }

  std::int64_t jobs() const { return jobs_; }
  double job_s() const { return job_s_; }
  double layer_s(Layer layer) const {
    return layer_s_[static_cast<std::size_t>(layer)];
  }
  double attributed_s() const {
    double sum = 0.0;
    for (const double s : layer_s_) {
      sum += s;
    }
    return sum;
  }
  double unattributed_s() const { return job_s_ - attributed_s(); }

  /// Share of job time, in [0, 1] for a well-formed split.
  double share(double seconds) const {
    return job_s_ > 0.0 ? seconds / job_s_ : 0.0;
  }

  /// One row per layer with time (total and per job) and share of job
  /// time, then the unattributed remainder and the job total.
  std::string table(const std::string& title) const {
    std::string out = title + "\n";
    char row[160];
    std::snprintf(row, sizeof(row), "  %-18s %12s %12s %8s\n", "layer",
                  "total_s", "per_job_us", "share");
    out += row;
    const double per_job = jobs_ > 0 ? 1e6 / static_cast<double>(jobs_) : 0;
    const auto line = [&](const char* name, double seconds) {
      std::snprintf(row, sizeof(row), "  %-18s %12.6f %12.3f %7.2f%%\n",
                    name, seconds, seconds * per_job, 100.0 * share(seconds));
      out += row;
    };
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      if (layer_s_[i] != 0.0) {
        line(layer_name(static_cast<Layer>(i)), layer_s_[i]);
      }
    }
    line("unattributed", unattributed_s());
    line("job (sojourn)", job_s_);
    return out;
  }

 private:
  std::int64_t jobs_ = 0;
  double job_s_ = 0.0;
  LayerTimes layer_s_{};
};

/// A traced region's wall time split by what its members did. Each part
/// is member time divided by the team width, so the parts add up to the
/// region's wall time; `runtime_s` is what the members spent outside
/// their chunks (launch, imbalance, join).
struct RegionSplit {
  int width = 0;
  double wall_s = 0.0;
  double work_s = 0.0;   // chunk time, spills and merges excluded
  double spill_s = 0.0;  // SpillEvent time
  double merge_s = 0.0;  // MergeEvent time
  double runtime_s = 0.0;
  double member_work_s = 0.0;  // sum of chunk time over members
  std::uint64_t steals = 0;
  /// Region start to each member's first chunk, one entry per member that
  /// ran a chunk.
  std::vector<double> launch_s;
};

inline RegionSplit split_region(const pblpar::rt::RunProfile& profile) {
  RegionSplit split;
  split.width = std::max(profile.num_threads, 1);
  split.wall_s = profile.region_s;
  std::vector<double> first_chunk(static_cast<std::size_t>(split.width), -1);
  for (const pblpar::rt::ChunkEvent& chunk : profile.chunks) {
    split.member_work_s += chunk.duration_s();
    auto& first = first_chunk[static_cast<std::size_t>(chunk.tid)];
    if (first < 0.0 || chunk.start_s < first) {
      first = chunk.start_s;
    }
  }
  for (const double first : first_chunk) {
    if (first >= 0.0) {
      split.launch_s.push_back(first);
    }
  }
  double spill = 0.0;
  for (const pblpar::rt::SpillEvent& event : profile.spills) {
    spill += event.duration_s();
  }
  double merge = 0.0;
  for (const pblpar::rt::MergeEvent& event : profile.merges) {
    merge += event.duration_s();
  }
  const double width = static_cast<double>(split.width);
  split.spill_s = spill / width;
  split.merge_s = merge / width;
  split.work_s = (split.member_work_s - spill - merge) / width;
  split.runtime_s = split.wall_s - split.member_work_s / width;
  split.steals = profile.steals.size();
  return split;
}

/// Empty when `actual` equals `expected` element for element; otherwise a
/// description of the first difference.
template <class K, class V>
std::string first_mismatch(const std::vector<std::pair<K, V>>& expected,
                           const std::vector<std::pair<K, V>>& actual) {
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) {
      std::ostringstream out;
      out << "entry " << i << ": expected (" << expected[i].first << ", "
          << expected[i].second << "), got (" << actual[i].first << ", "
          << actual[i].second << ")";
      return out.str();
    }
  }
  if (expected.size() != actual.size()) {
    std::ostringstream out;
    out << "expected " << expected.size() << " entries, got "
        << actual.size();
    return out.str();
  }
  return {};
}

}  // namespace campusbench
