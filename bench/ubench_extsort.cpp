// Out-of-core tier benchmark: the parallel external sort and the
// memory-budgeted spillable MapReduce shuffle, against their in-memory
// baselines. Results go to BENCH_extsort.json in the working directory.
//
// Three phases, in a deliberate order:
//
//   1. bounded-RSS proof — sort a dataset 8x the memory budget and check
//      the process high-water RSS grew by a small multiple of the budget,
//      not by the dataset. This phase MUST run first: getrusage's
//      ru_maxrss is a lifetime high-water mark, so any later phase that
//      materializes a big vector would mask the measurement.
//   2. crossover sweep — sort_file vs std::sort across sizes with a fixed
//      budget, showing where the external path takes over and what it
//      costs when it does.
//   3. spill-shuffle overhead — the word-count job with and without a
//      shuffle budget of dataset/4 and dataset/2; the acceptance bar is
//      spilling <= 1.5x the in-memory run at budgets >= dataset/4.
//
// --smoke runs tiny shapes of all three phases in a couple of seconds;
// the bench-smoke ctest label uses it so the binary stays exercised.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "harness.hpp"
#include "mapreduce/defs.hpp"
#include "mapreduce/job.hpp"
#include "oocore/extsort.hpp"
#include "oocore/io.hpp"
#include "oocore/scratch.hpp"
#include "rt/parallel.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
namespace bench = pblpar::bench;
namespace util = pblpar::util;
using pblpar::oocore::ExtSortOptions;
using pblpar::oocore::ExtSortReport;
using pblpar::oocore::ScratchDir;
using pblpar::oocore::SpillReader;
using pblpar::oocore::SpillWriter;
using pblpar::util::Rng;

/// Process high-water resident set in bytes (0 where unsupported).
std::int64_t max_rss_bytes() {
#if defined(_WIN32)
  return 0;
#else
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

/// Order-independent permutation checksum: (count, sum, xor) of records.
struct Checksum {
  std::int64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;

  void add(std::uint64_t value) {
    ++count;
    sum += value;
    xored ^= value;
  }
  bool operator==(const Checksum& other) const {
    return count == other.count && sum == other.sum && xored == other.xored;
  }
};

/// Stream-generate a file of random records WITHOUT materializing the
/// dataset in memory — the bounded-RSS phase depends on that.
Checksum write_random_file(const fs::path& path, std::int64_t records,
                           std::uint64_t seed) {
  Rng rng(seed);
  Checksum checksum;
  SpillWriter writer(path, std::size_t{1} << 20);
  std::vector<std::uint64_t> block(std::size_t{1} << 16);
  std::int64_t left = records;
  while (left > 0) {
    const auto n = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(block.size()), left));
    for (std::size_t i = 0; i < n; ++i) {
      block[i] = rng.next_u64();
      checksum.add(block[i]);
    }
    writer.write(block.data(), n * sizeof(std::uint64_t));
    left -= static_cast<std::int64_t>(n);
  }
  writer.close();
  return checksum;
}

/// Stream-verify a sorted file: non-decreasing and checksum-matching,
/// again without loading it whole.
bool verify_sorted_file(const fs::path& path, const Checksum& expected) {
  Checksum seen;
  SpillReader reader(path, std::size_t{1} << 20);
  std::vector<std::uint64_t> block(std::size_t{1} << 16);
  std::uint64_t previous = 0;
  bool first = true;
  for (;;) {
    const std::size_t got =
        reader.read(block.data(), block.size() * sizeof(std::uint64_t));
    if (got == 0) {
      break;
    }
    const std::size_t n = got / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < n; ++i) {
      if (!first && block[i] < previous) {
        return false;
      }
      previous = block[i];
      first = false;
      seen.add(block[i]);
    }
  }
  return seen == expected;
}

struct BoundedRssResult {
  std::int64_t dataset_bytes = 0;
  std::int64_t budget_bytes = 0;
  std::int64_t rss_before_bytes = 0;
  std::int64_t rss_after_bytes = 0;
  std::int64_t rss_growth_bytes = 0;
  double seconds = 0.0;
  int initial_runs = 0;
  int merge_passes = 0;
  bool sorted_ok = false;
  bool pass = false;
};

/// Phase 1: dataset = 8x budget, streamed in and out; the external sort's
/// peak memory must scale with the budget, not the dataset.
BoundedRssResult run_bounded_rss(std::int64_t budget_bytes) {
  BoundedRssResult result;
  result.budget_bytes = budget_bytes;
  result.dataset_bytes = 8 * budget_bytes;
  const std::int64_t records =
      result.dataset_bytes / static_cast<std::int64_t>(sizeof(std::uint64_t));

  ScratchDir staging("pblpar-extsort-bench");
  const fs::path input = staging.next_path("input");
  const fs::path output = staging.next_path("output");
  const Checksum checksum = write_random_file(input, records, 12345);

  ExtSortOptions opts;
  opts.memory_budget_bytes = static_cast<std::size_t>(budget_bytes);
  opts.io_buffer_bytes =
      std::min<std::size_t>(std::size_t{256} << 10,
                            static_cast<std::size_t>(budget_bytes) / 4);

  result.rss_before_bytes = max_rss_bytes();
  const auto start = bench::Clock::now();
  const ExtSortReport report = pblpar::oocore::sort_file<std::uint64_t>(
      input, output, opts);
  result.seconds = bench::seconds_since(start);
  result.rss_after_bytes = max_rss_bytes();
  result.rss_growth_bytes = result.rss_after_bytes - result.rss_before_bytes;
  result.initial_runs = report.initial_runs;
  result.merge_passes = report.merge_passes;
  result.sorted_ok = report.external && verify_sorted_file(output, checksum);
  // "Bounded": the high-water mark moved by a small multiple of the
  // budget (run buffers + I/O buffers + allocator slack), and nowhere
  // near the dataset itself.
  result.pass = result.sorted_ok &&
                result.rss_growth_bytes < 4 * budget_bytes &&
                result.rss_growth_bytes < result.dataset_bytes / 2;
  return result;
}

struct CrossoverRow {
  std::int64_t records = 0;
  std::int64_t bytes = 0;
  bool external = false;
  double std_sort_seconds = 0.0;
  double ext_sort_seconds = 0.0;
  double ratio = 0.0;
};

/// Phase 2: sort_file (fixed budget) vs std::sort across dataset sizes.
CrossoverRow run_crossover_point(std::int64_t records,
                                 std::int64_t budget_bytes, int repeats) {
  CrossoverRow row;
  row.records = records;
  row.bytes = records * static_cast<std::int64_t>(sizeof(std::uint64_t));

  ScratchDir staging("pblpar-extsort-bench");
  const fs::path input = staging.next_path("input");
  const Checksum checksum = write_random_file(input, records, 999);

  // std::sort baseline: data already in memory, pure sort time.
  std::vector<std::uint64_t> data(static_cast<std::size_t>(records));
  {
    SpillReader reader(input, std::size_t{1} << 20);
    reader.read(data.data(), data.size() * sizeof(std::uint64_t));
  }
  row.std_sort_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    std::vector<std::uint64_t> copy = data;
    const auto start = bench::Clock::now();
    std::sort(copy.begin(), copy.end());
    row.std_sort_seconds =
        std::min(row.std_sort_seconds, bench::seconds_since(start));
  }
  data.clear();
  data.shrink_to_fit();

  ExtSortOptions opts;
  opts.memory_budget_bytes = static_cast<std::size_t>(budget_bytes);
  opts.io_buffer_bytes = std::size_t{256} << 10;
  row.ext_sort_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const fs::path output = staging.next_path("output");
    const auto start = bench::Clock::now();
    const ExtSortReport report = pblpar::oocore::sort_file<std::uint64_t>(
        input, output, opts);
    row.ext_sort_seconds =
        std::min(row.ext_sort_seconds, bench::seconds_since(start));
    row.external = report.external;
    if (r + 1 == repeats && !verify_sorted_file(output, checksum)) {
      row.ratio = -1.0;  // flag verification failure loudly in the JSON
      return row;
    }
    std::error_code ec;
    fs::remove(output, ec);
  }
  row.ratio = row.ext_sort_seconds / row.std_sort_seconds;
  return row;
}

struct SpillShuffleResult {
  std::int64_t input_bytes = 0;
  double in_memory_seconds = 0.0;
  double quarter_budget_seconds = 0.0;
  double half_budget_seconds = 0.0;
  std::int64_t quarter_spilled_runs = 0;
  std::int64_t quarter_spilled_bytes = 0;
  double quarter_overhead = 0.0;
  double half_overhead = 0.0;
  bool identical = false;
  bool pass = false;
};

/// Phase 3: the Assignment-5 word-count job, unbudgeted vs budgets of
/// dataset/4 and dataset/2. `overhead_bar` is the acceptance threshold
/// for the budgeted/in-memory ratio; --smoke passes infinity because a
/// one-repeat run sharing a loaded ctest box can't hold a timing bar.
SpillShuffleResult run_spill_shuffle(int documents, int repeats,
                                     double overhead_bar) {
  std::vector<std::string> texts;
  texts.reserve(static_cast<std::size_t>(documents));
  std::int64_t input_bytes = 0;
  for (int d = 0; d < documents; ++d) {
    std::string text;
    for (int w = 0; w < 24; ++w) {
      text += "token" + std::to_string((d * 31 + w * 11) % 409) + " ";
    }
    input_bytes += static_cast<std::int64_t>(text.size());
    texts.push_back(std::move(text));
  }
  const auto inputs = pblpar::mapreduce::defs::indexed(texts);

  SpillShuffleResult result;
  result.input_bytes = input_bytes;

  pblpar::mapreduce::Job<int, std::string, std::string, long> job;
  pblpar::mapreduce::defs::WordCountDef{}.configure(job);

  const auto time_runs = [&](std::vector<std::pair<std::string, long>>* out,
                             pblpar::mapreduce::RunReport* report) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const auto start = bench::Clock::now();
      auto rows = job.run(inputs, report);
      best = std::min(best, bench::seconds_since(start));
      if (out != nullptr) {
        *out = std::move(rows);
      }
    }
    return best;
  };

  std::vector<std::pair<std::string, long>> baseline;
  result.in_memory_seconds = time_runs(&baseline, nullptr);

  pblpar::mapreduce::RunReport quarter_report;
  std::vector<std::pair<std::string, long>> quarter_rows;
  job.memory_budget_bytes(std::max<std::int64_t>(input_bytes / 4, 1 << 16));
  result.quarter_budget_seconds = time_runs(&quarter_rows, &quarter_report);
  result.quarter_spilled_runs = quarter_report.spilled_runs;
  result.quarter_spilled_bytes = quarter_report.spilled_bytes;

  job.memory_budget_bytes(std::max<std::int64_t>(input_bytes / 2, 1 << 16));
  result.half_budget_seconds = time_runs(nullptr, nullptr);

  result.quarter_overhead =
      result.quarter_budget_seconds / result.in_memory_seconds;
  result.half_overhead =
      result.half_budget_seconds / result.in_memory_seconds;
  result.identical = baseline == quarter_rows;
  result.pass = result.identical && result.quarter_spilled_runs > 0 &&
                result.quarter_overhead <= overhead_bar &&
                result.half_overhead <= overhead_bar;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);

  // Phase 1 first: ru_maxrss is a lifetime high-water mark.
  const std::int64_t budget =
      smoke ? (std::int64_t{1} << 20) : (std::int64_t{8} << 20);
  const BoundedRssResult rss = run_bounded_rss(budget);
  std::printf(
      "bounded-rss: dataset %lld MiB vs budget %lld MiB -> rss growth "
      "%.1f MiB in %.2fs (%d runs, %d merge passes) sorted=%s pass=%s\n",
      static_cast<long long>(rss.dataset_bytes >> 20),
      static_cast<long long>(rss.budget_bytes >> 20),
      static_cast<double>(rss.rss_growth_bytes) / (1 << 20), rss.seconds,
      rss.initial_runs, rss.merge_passes, rss.sorted_ok ? "yes" : "no",
      rss.pass ? "yes" : "no");

  // Phase 2: crossover sweep with a fixed budget.
  const std::int64_t crossover_budget =
      smoke ? (std::int64_t{1} << 20) : (std::int64_t{4} << 20);
  const std::vector<std::int64_t> sizes =
      smoke ? std::vector<std::int64_t>{1 << 14, 1 << 18}
            : std::vector<std::int64_t>{1 << 14, 1 << 16, 1 << 18, 1 << 20,
                                        1 << 22};
  std::vector<CrossoverRow> crossover;
  for (const std::int64_t records : sizes) {
    crossover.push_back(
        run_crossover_point(records, crossover_budget, smoke ? 1 : 3));
    const CrossoverRow& row = crossover.back();
    std::printf(
        "crossover: %8lld records (%5lld KiB) %s std::sort %.4fs "
        "ext %.4fs ratio %.2f\n",
        static_cast<long long>(row.records),
        static_cast<long long>(row.bytes >> 10),
        row.external ? "external " : "in-budget",
        row.std_sort_seconds, row.ext_sort_seconds, row.ratio);
  }
  bool crossover_ok = true;
  double largest_in_budget_ratio = 0.0;
  bool saw_external = false;
  for (const CrossoverRow& row : crossover) {
    if (row.ratio < 0.0) {
      crossover_ok = false;  // a verification failure
    }
    if (!row.external) {
      largest_in_budget_ratio = row.ratio;
    } else {
      saw_external = true;
    }
  }
  // In-budget sort_file pays file I/O on top of the same std::sort; the
  // external rows just need to exist and verify. Timing bars only hold
  // on an otherwise-idle box, so --smoke (which runs inside a parallel
  // ctest schedule) keeps the structural checks and drops the ratios.
  const double in_budget_bar =
      smoke ? std::numeric_limits<double>::infinity() : 5.0;
  crossover_ok = crossover_ok && saw_external &&
                 largest_in_budget_ratio <= in_budget_bar;

  // Phase 3: spillable shuffle vs in-memory shuffle.
  const double overhead_bar =
      smoke ? std::numeric_limits<double>::infinity() : 1.5;
  const SpillShuffleResult shuffle =
      run_spill_shuffle(smoke ? 800 : 20000, smoke ? 1 : 3, overhead_bar);
  std::printf(
      "spill-shuffle: input %lld KiB, in-memory %.4fs, budget/4 %.4fs "
      "(%.2fx, %lld runs), budget/2 %.4fs (%.2fx) identical=%s pass=%s\n",
      static_cast<long long>(shuffle.input_bytes >> 10),
      shuffle.in_memory_seconds, shuffle.quarter_budget_seconds,
      shuffle.quarter_overhead,
      static_cast<long long>(shuffle.quarter_spilled_runs),
      shuffle.half_budget_seconds, shuffle.half_overhead,
      shuffle.identical ? "yes" : "no", shuffle.pass ? "yes" : "no");

  // Each phase object below records its own `pass`.
  bench::Checks checks;
  checks.add({.name = "bounded_rss", .passed = rss.pass, .recorded = false});
  checks.add(
      {.name = "crossover", .passed = crossover_ok, .recorded = false});
  checks.add(
      {.name = "spill_shuffle", .passed = shuffle.pass, .recorded = false});
  checks.print();

  util::Json json(util::Json::Style::indented);
  json.begin_object().fields("bench", "ubench_extsort", "smoke", smoke);
  json.key("bounded_rss").object(
      "dataset_bytes", rss.dataset_bytes, "budget_bytes", rss.budget_bytes,
      "rss_growth_bytes", rss.rss_growth_bytes, "seconds", rss.seconds,
      "initial_runs", rss.initial_runs, "merge_passes", rss.merge_passes,
      "sorted_ok", rss.sorted_ok, "pass", rss.pass);
  json.key("crossover").begin_object().field("budget_bytes",
                                             crossover_budget);
  json.key("rows").begin_array();
  for (const CrossoverRow& row : crossover) {
    json.object("records", row.records, "bytes", row.bytes,
                "external", row.external,
                "std_sort_seconds", row.std_sort_seconds,
                "ext_sort_seconds", row.ext_sort_seconds, "ratio", row.ratio);
  }
  json.end_array().field("pass", crossover_ok).end_object();
  json.key("spill_shuffle").object(
      "input_bytes", shuffle.input_bytes,
      "in_memory_seconds", shuffle.in_memory_seconds,
      "quarter_budget_seconds", shuffle.quarter_budget_seconds,
      "half_budget_seconds", shuffle.half_budget_seconds,
      "quarter_overhead", shuffle.quarter_overhead,
      "half_overhead", shuffle.half_overhead,
      "quarter_spilled_runs", shuffle.quarter_spilled_runs,
      "quarter_spilled_bytes", shuffle.quarter_spilled_bytes,
      "identical", shuffle.identical, "pass", shuffle.pass);
  json.field("pass", checks.passed()).end_object();
  bench::write_file("BENCH_extsort.json", json);
  return checks.exit_code();
}
