#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "mapreduce/defs.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "rt/cancel.hpp"
#include "util/error.hpp"
#include "util/text.hpp"
#include "util/wire.hpp"

namespace pblpar::mapreduce {
namespace {

namespace fs = std::filesystem;

std::size_t pid_scratch_entries() {
  const std::string pid_tag =
#if defined(_WIN32)
      "-" + std::to_string(_getpid()) + "-";
#else
      "-" + std::to_string(::getpid()) + "-";
#endif
  std::error_code ec;
  fs::directory_iterator it(fs::temp_directory_path(), ec);
  if (ec) {
    return 0;
  }
  std::size_t count = 0;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pblpar-", 0) == 0 &&
        name.find(pid_tag) != std::string::npos) {
      ++count;
    }
  }
  return count;
}

/// Tmpdir-hygiene fixture: a spilling job must never strand its shuffle
/// scratch directory, whatever path run() exits through.
class SpillShuffleTest : public ::testing::Test {
 protected:
  void SetUp() override { baseline_entries_ = pid_scratch_entries(); }
  void TearDown() override {
    EXPECT_EQ(pid_scratch_entries(), baseline_entries_)
        << "a spilling job left its scratch directory behind";
  }

 private:
  std::size_t baseline_entries_ = 0;
};

/// Byte-level fingerprint of a job's output: every key and value pushed
/// through the deterministic wire codec, then FNV-1a over the
/// bytes. Two outputs fingerprint equal iff they are byte-identical.
template <class K, class V>
std::uint64_t fingerprint(const std::vector<std::pair<K, V>>& rows) {
  util::Writer writer;
  for (const auto& [key, value] : rows) {
    util::WireCodec<K>::write(writer, key);
    util::WireCodec<V>::write(writer, value);
  }
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::byte byte : writer.take()) {
    hash ^= static_cast<std::uint64_t>(byte);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Deterministic pseudo-documents: enough distinct words that a few-KiB
/// budget forces every worker to spill many times.
std::vector<std::string> make_documents(int count) {
  std::vector<std::string> documents;
  documents.reserve(static_cast<std::size_t>(count));
  for (int d = 0; d < count; ++d) {
    std::string text;
    for (int w = 0; w < 12; ++w) {
      text += "word" + std::to_string((d * 13 + w * 7) % 101) + " ";
    }
    text += "doc" + std::to_string(d % 17);
    documents.push_back(std::move(text));
  }
  return documents;
}

constexpr std::int64_t kTinyBudget = 4096;

/// Run `job` twice over `inputs` — in-memory and with a tiny budget —
/// and require byte-identical outputs plus real spill activity.
template <class JobT, class K1, class V1>
void expect_spill_identity(JobT& job,
                           const std::vector<std::pair<K1, V1>>& inputs) {
  job.threads(4).reducers(3);
  const auto in_memory = job.run(inputs);

  RunReport report;
  job.memory_budget_bytes(kTinyBudget);
  const auto spilled = job.run(inputs, &report);

  EXPECT_GT(report.spilled_runs, 0) << "budget never forced a spill";
  EXPECT_GT(report.spilled_bytes, 0);
  EXPECT_EQ(fingerprint(in_memory), fingerprint(spilled));
  EXPECT_EQ(in_memory, spilled);
}

TEST_F(SpillShuffleTest, WordCountSpillsByteIdentical) {
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  expect_spill_identity(job, defs::indexed(make_documents(300)));
}

TEST_F(SpillShuffleTest, InvertedIndexSpillsByteIdentical) {
  Job<int, std::string, std::string, int, std::vector<int>> job;
  defs::InvertedIndexDef{}.configure(job);
  expect_spill_identity(job, defs::indexed(make_documents(300)));
}

TEST_F(SpillShuffleTest, UrlAccessCountsSpillsByteIdentical) {
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) {
    lines.push_back("/page/" + std::to_string(i % 97) + " GET 200");
  }
  Job<int, std::string, std::string, long> job;
  defs::UrlAccessCountsDef{}.configure(job);
  expect_spill_identity(job, defs::indexed(lines));
}

TEST_F(SpillShuffleTest, DistributedGrepSpillsByteIdentical) {
  std::vector<std::string> lines;
  for (int i = 0; i < 2000; ++i) {
    lines.push_back("line " + std::to_string(i) +
                    (i % 3 == 0 ? " needle in the haystack" : " hay only"));
  }
  Job<int, std::string, int, std::string> job;
  defs::DistributedGrepDef{"needle"}.configure(job);
  expect_spill_identity(job, defs::indexed(lines));
}

TEST_F(SpillShuffleTest, MeanPerKeySpillsByteIdentical) {
  std::vector<std::pair<std::string, double>> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.emplace_back("sensor" + std::to_string(i % 59),
                         0.25 * static_cast<double>(i % 1000));
  }
  Job<std::string, double, std::string, double> job;
  defs::MeanPerKeyDef{}.configure(job);
  expect_spill_identity(job, samples);
}

TEST_F(SpillShuffleTest, FoldedKeysFitABudgetTheRawPairsOverflow) {
  // 118 distinct words over 2000 documents: the raw (word, 1) emissions
  // are far past the budget, but with a combiner the budget counts the
  // fold tables' distinct keys, which fit.
  const std::vector<std::string> documents = make_documents(2000);
  constexpr std::int64_t kBudget = std::int64_t{64} << 10;
  std::int64_t raw_bytes = 0;
  for (const std::string& text : documents) {
    for (const std::string& word : util::tokenize_words(text)) {
      raw_bytes += static_cast<std::int64_t>(oocore::approx_bytes(word) +
                                             oocore::approx_bytes(1L));
    }
  }
  ASSERT_GE(raw_bytes, 10 * kBudget);

  const auto inputs = defs::indexed(documents);
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  job.threads(4).reducers(3);
  const auto in_memory = job.run(inputs);

  RunReport report;
  job.memory_budget_bytes(kBudget);
  const auto budgeted = job.run(inputs, &report);
  EXPECT_EQ(report.spilled_runs, 0);
  EXPECT_EQ(report.spilled_bytes, 0);
  EXPECT_EQ(fingerprint(in_memory), fingerprint(budgeted));
  EXPECT_EQ(in_memory, budgeted);
}

TEST_F(SpillShuffleTest, BudgetKnobRejectsNonPositiveBytes) {
  Job<int, std::string, std::string, long> job;
  EXPECT_THROW(job.memory_budget_bytes(0), util::PreconditionError);
  EXPECT_THROW(job.memory_budget_bytes(-1024), util::PreconditionError);
}

TEST_F(SpillShuffleTest, SpillSurvivesIoChaos) {
  const auto inputs = defs::indexed(make_documents(200));
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  job.threads(4).reducers(4);
  const auto in_memory = job.run(inputs);

  oocore::IoChaos chaos;
  chaos.short_write_probability = 1.0;
  chaos.slow_read_probability = 0.01;
  chaos.slow_read_delay_s = 1e-4;
  chaos.seed = 7;
  RunReport report;
  job.memory_budget_bytes(kTinyBudget).io_chaos(chaos);
  const auto spilled = job.run(inputs, &report);
  EXPECT_GT(report.spilled_runs, 0);
  EXPECT_EQ(in_memory, spilled);
}

TEST_F(SpillShuffleTest, TracedSpillRecordsSpillAndMergeEvents) {
  const auto inputs = defs::indexed(make_documents(200));
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  RunReport report;
  job.threads(4).reducers(3).memory_budget_bytes(kTinyBudget).traced();
  const auto rows = job.run(inputs, &report);
  EXPECT_FALSE(rows.empty());
  ASSERT_NE(report.map_profile, nullptr);
  ASSERT_NE(report.reduce_profile, nullptr);

  ASSERT_FALSE(report.map_profile->spills.empty());
  std::int64_t spill_bytes = 0;
  for (const rt::SpillEvent& spill : report.map_profile->spills) {
    EXPECT_EQ(spill.phase, "shuffle");
    EXPECT_GE(spill.end_s, spill.start_s);
    spill_bytes += spill.bytes;
  }
  EXPECT_EQ(spill_bytes, report.spilled_bytes);

  ASSERT_FALSE(report.reduce_profile->merges.empty());
  for (const rt::MergeEvent& merge : report.reduce_profile->merges) {
    EXPECT_GE(merge.fan_in, 1);
    EXPECT_GT(merge.records, 0);
  }

  // The events flow through the PR-1 schema exports too.
  const std::string json = report.map_profile->to_json();
  EXPECT_NE(json.find("\"spills\""), std::string::npos);
  EXPECT_NE(report.reduce_profile->to_json().find("\"merges\""),
            std::string::npos);
}

// An in-memory job reduces through the same merge with zero run files;
// only a merge that read runs is a MergeEvent.
TEST_F(SpillShuffleTest, TracedInMemoryRunRecordsNoSpillOrMergeEvent) {
  const auto inputs = defs::indexed(make_documents(200));
  Job<int, std::string, std::string, int, std::vector<int>> job;
  defs::InvertedIndexDef{}.configure(job);
  RunReport report;
  job.threads(4).reducers(3).traced();
  const auto rows = job.run(inputs, &report);
  EXPECT_FALSE(rows.empty());
  EXPECT_EQ(report.spilled_runs, 0);
  ASSERT_NE(report.map_profile, nullptr);
  ASSERT_NE(report.reduce_profile, nullptr);
  EXPECT_TRUE(report.map_profile->spills.empty());
  EXPECT_TRUE(report.reduce_profile->merges.empty());
}

TEST_F(SpillShuffleTest, AbortCancelDropsSpillFiles) {
  const auto inputs = defs::indexed(make_documents(400));
  rt::CancelSource source;
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  std::atomic<int> mapped{0};
  job.map([&source, &mapped](const int&, const std::string& text,
                             Emitter<std::string, long>& out) {
       // Cancel mid-map, well after the tiny budget has forced spills.
       if (mapped.fetch_add(1) == 150) {
         source.cancel();
       }
       for (std::string& word : util::tokenize_words(text)) {
         out.emit(std::move(word), 1L);
       }
     })
      .threads(4)
      .reducers(3)
      .memory_budget_bytes(kTinyBudget)
      .cancellable(source.token());
  EXPECT_THROW(job.run(inputs), rt::Cancelled);
  // TearDown asserts the scratch directory (and every spill run in it)
  // died with the throw.
}

/// Cancel a word count mid-map under Salvage and require the output to be
/// exactly the word count of the records the mapper ran for: every kept
/// emission, whether spilled, still in a fold table or in a leftover
/// bucket, reaches the reducer, and no other does.
void expect_salvage_keeps_mapped_records(std::int64_t budget_bytes) {
  const std::vector<std::string> documents = make_documents(400);
  const auto inputs = defs::indexed(documents);
  // One slot per record, written only by the worker mapping it.
  std::vector<char> mapped_ids(documents.size(), 0);

  rt::CancelSource source;
  Job<int, std::string, std::string, long> job;
  defs::WordCountDef{}.configure(job);
  std::atomic<int> mapped{0};
  job.map([&source, &mapped, &mapped_ids](const int& id,
                                          const std::string& text,
                                          Emitter<std::string, long>& out) {
       mapped_ids[static_cast<std::size_t>(id)] = 1;
       if (mapped.fetch_add(1) == 150) {
         source.cancel();
       }
       for (std::string& word : util::tokenize_words(text)) {
         out.emit(std::move(word), 1L);
       }
     })
      .threads(4)
      .reducers(3)
      .cancellable(source.token())
      .cut_policy(DeadlinePolicy::Salvage);
  if (budget_bytes > 0) {
    job.memory_budget_bytes(budget_bytes);
  }
  RunReport report;
  const auto salvaged = job.run(inputs, &report);
  EXPECT_TRUE(report.deadline_hit);
  EXPECT_LT(report.mapped_records, report.total_records);
  if (budget_bytes > 0) {
    EXPECT_GT(report.spilled_runs, 0) << "the cut came before any spill";
  }

  std::vector<std::string> kept;
  for (std::size_t i = 0; i < documents.size(); ++i) {
    if (mapped_ids[i] != 0) {
      kept.push_back(documents[i]);
    }
  }
  EXPECT_EQ(report.mapped_records, static_cast<std::int64_t>(kept.size()));
  EXPECT_FALSE(salvaged.empty());
  EXPECT_EQ(salvaged, word_count(kept, 4));
}

TEST_F(SpillShuffleTest, SalvageAfterSpillStillReduces) {
  expect_salvage_keeps_mapped_records(kTinyBudget);
}

TEST_F(SpillShuffleTest, SalvageWithoutBudgetKeepsMappedRecords) {
  expect_salvage_keeps_mapped_records(0);
}

}  // namespace
}  // namespace pblpar::mapreduce
