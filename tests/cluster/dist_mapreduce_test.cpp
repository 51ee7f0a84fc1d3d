#include "cluster/dist_mapreduce.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/jobs.hpp"
#include "drugdesign/drugdesign.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/sim_world.hpp"

namespace pblpar::cluster {
namespace {

std::vector<std::string> sample_documents() {
  return {
      "the quick brown fox jumps over the lazy dog",
      "the dog barks at the fox",
      "parallel programming teaches patience and the dog agrees",
      "a fox a dog a course",
      "threads race but messages queue",
      "the course covers threads openmp and mpi",
      "mpi ranks exchange messages over the network",
      "every rank runs the same program",
      "the master schedules and the workers compute",
      "speculation hides stragglers in the tail",
  };
}

std::vector<std::string> sample_log_lines() {
  return {
      "/index.html 200 alice", "/about.html 200 bob",
      "/index.html 304 carol", "/data.csv 200 alice",
      "/index.html 200 dave",  "/about.html 404 erin",
  };
}

/// Run `fn(comm)` on a simulated cluster and return rank 0's result,
/// asserting every rank computed an identical copy (the distributed
/// output is replicated).
template <class Fn>
auto on_sim_cluster(int nodes, const FaultPlan* faults, Fn fn) {
  using ResultT = decltype(fn(std::declval<mp::SimComm&>(),
                              std::declval<const FaultPlan*>()));
  std::vector<ResultT> per_rank(static_cast<std::size_t>(nodes));
  mp::SimWorld::run(nodes, [&](mp::SimComm& comm) {
    per_rank[static_cast<std::size_t>(comm.rank())] = fn(comm, faults);
  });
  for (int r = 1; r < nodes; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
        << "rank " << r << " disagrees with rank 0";
  }
  return per_rank[0];
}

TEST(DistMapReduceTest, WordCountMatchesThreadLocalByteForByte) {
  const auto expected = mapreduce::word_count(sample_documents(), 1);
  const auto actual =
      on_sim_cluster(4, nullptr, [](mp::SimComm& comm, const FaultPlan*) {
        return jobs::word_count(comm, sample_documents());
      });
  EXPECT_EQ(actual, expected);
}

TEST(DistMapReduceTest, AllFiveJobsMatchTheirThreadLocalCounterparts) {
  const std::vector<std::pair<std::string, double>> samples = {
      {"cpu", 0.5}, {"net", 0.125}, {"cpu", 1.5},
      {"disk", 2.0}, {"net", 0.375}, {"cpu", 0.25},
  };
  on_sim_cluster(3, nullptr, [&](mp::SimComm& comm, const FaultPlan*) {
    EXPECT_EQ(jobs::word_count(comm, sample_documents()),
              mapreduce::word_count(sample_documents(), 1));
    EXPECT_EQ(jobs::inverted_index(comm, sample_documents()),
              mapreduce::inverted_index(sample_documents(), 1));
    EXPECT_EQ(jobs::url_access_counts(comm, sample_log_lines()),
              mapreduce::url_access_counts(sample_log_lines(), 1));
    EXPECT_EQ(jobs::distributed_grep(comm, sample_documents(), "dog"),
              mapreduce::distributed_grep(sample_documents(), "dog", 1));
    EXPECT_EQ(jobs::mean_per_key(comm, samples),
              mapreduce::mean_per_key(samples, 1));
    return 0;
  });
}

TEST(DistMapReduceTest, OutputSurvivesAWorkerCrashUnchanged) {
  const auto expected = mapreduce::word_count(sample_documents(), 1);
  FaultPlan faults;
  faults.crashes.push_back(CrashFault{2, 1});
  ClusterOptions options;
  options.max_live_attempts = 1;  // no speculation: recovery must requeue
  ClusterProfile profile;
  const auto actual =
      on_sim_cluster(4, &faults, [&](mp::SimComm& comm, const FaultPlan* f) {
        return jobs::word_count(comm, sample_documents(), {}, options, f,
                                comm.rank() == 0 ? &profile : nullptr);
      });
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(profile.stats.dead_workers, 1);
  EXPECT_GE(profile.stats.requeues, 1);
}

TEST(DistMapReduceTest, OutputSurvivesAStragglerUnchanged) {
  const auto expected = mapreduce::inverted_index(sample_documents(), 1);
  FaultPlan faults;
  // 20x slow: each map slice stays under the heartbeat timeout, so the
  // straggler is never written off — speculation beats it instead.
  faults.stragglers.push_back(StragglerFault{1, 20.0});
  jobs::JobTuning tuning;
  tuning.map_cost_ops = 1e7;  // heavy enough that speculation pays
  ClusterProfile profile;
  const auto actual =
      on_sim_cluster(4, &faults, [&](mp::SimComm& comm, const FaultPlan* f) {
        return jobs::inverted_index(comm, sample_documents(), tuning, {}, f,
                                    comm.rank() == 0 ? &profile : nullptr);
      });
  EXPECT_EQ(actual, expected);
  EXPECT_GE(profile.stats.speculative_attempts, 1);
  EXPECT_TRUE(profile.dead_workers.empty());
}

TEST(DistMapReduceTest, SingleRankWorldStillMatches) {
  const auto expected = mapreduce::url_access_counts(sample_log_lines(), 1);
  const auto actual =
      on_sim_cluster(1, nullptr, [](mp::SimComm& comm, const FaultPlan*) {
        return jobs::url_access_counts(comm, sample_log_lines());
      });
  EXPECT_EQ(actual, expected);
}

TEST(DistMapReduceTest, EmptyInputProducesEmptyOutput) {
  const auto actual =
      on_sim_cluster(3, nullptr, [](mp::SimComm& comm, const FaultPlan*) {
        return jobs::word_count(comm, {});
      });
  EXPECT_TRUE(actual.empty());
}

TEST(DistMapReduceTest, DrugDesignSweepMatchesSequentialEvenUnderFaults) {
  drugdesign::Config config;
  config.num_ligands = 24;
  config.max_ligand_len = 5;
  config.protein_len = 60;
  const drugdesign::Result expected = drugdesign::solve_sequential(config);

  const drugdesign::Result clean = drugdesign::solve_cluster(config, 4);
  EXPECT_EQ(clean.best_score, expected.best_score);
  EXPECT_EQ(clean.best_ligands, expected.best_ligands);
  EXPECT_GT(clean.elapsed_seconds, 0.0);

  FaultPlan faults;
  faults.crashes.push_back(CrashFault{1, 2});
  faults.stragglers.push_back(StragglerFault{3, 30.0});
  ClusterProfile profile;
  const drugdesign::Result faulty =
      drugdesign::solve_cluster(config, 4, &faults, &profile);
  EXPECT_EQ(faulty.best_score, expected.best_score);
  EXPECT_EQ(faulty.best_ligands, expected.best_ligands);
  EXPECT_EQ(profile.stats.dead_workers, 1);
  // The crashed worker's task came back via a requeue or a speculative
  // duplicate, whichever the schedule reached first.
  EXPECT_GE(profile.stats.requeues + profile.stats.speculative_attempts, 1);
}

/// Word count on four Sim ranks; `combine` selects the folding map side.
mp::ClusterReport run_pinned_word_count(bool combine) {
  using Job = DistJob<int, std::string, std::string, long>;
  Job job;
  mapreduce::defs::WordCountDef{}.configure(job);
  if (!combine) {
    job.combine(nullptr);
  }
  const auto inputs = mapreduce::defs::indexed(sample_documents());
  const auto expected = mapreduce::word_count(sample_documents(), 1);
  return mp::SimWorld::run(4, [&](mp::SimComm& comm) {
    EXPECT_EQ(job.run(comm, inputs), expected);
  });
}

// The shuffle's wire format, pinned: map-task result blobs, per-rank
// shuffle blobs and the replicated output all cross the Sim wire, so a
// change to their framing, a message more or less, or a pair shipped
// unfolded moves these totals. The values are the ones this job produced
// when the format was last changed on purpose.
TEST(DistMapReduceTest, ShuffleWireTrafficIsPinned) {
  const mp::ClusterReport folded = run_pinned_word_count(true);
  EXPECT_EQ(folded.messages, 60u);
  EXPECT_EQ(folded.payload_bytes, 5935u);

  const mp::ClusterReport raw = run_pinned_word_count(false);
  EXPECT_EQ(raw.messages, 60u);
  EXPECT_EQ(raw.payload_bytes, 6092u);
}

}  // namespace
}  // namespace pblpar::cluster
