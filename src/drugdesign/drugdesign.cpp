#include "drugdesign/drugdesign.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/engine.hpp"
#include "mapreduce/job.hpp"
#include "rt/parallel.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

#include <chrono>

namespace pblpar::drugdesign {

namespace {

constexpr double kOpsPerRecursionUnit = 8.0;

std::vector<int> score_all_expected_size(const Config& config) {
  return std::vector<int>(static_cast<std::size_t>(config.num_ligands), -1);
}

Result finalize(const Config& config,
                const std::vector<std::string>& ligands,
                const std::vector<int>& scores) {
  Result result;
  result.best_score =
      *std::max_element(scores.begin(), scores.end());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] == result.best_score) {
      result.best_ligands.push_back(ligands[i]);
    }
  }
  util::ensure(!result.best_ligands.empty(),
               "drugdesign: no best ligand found");
  (void)config;
  return result;
}

struct Workload {
  std::vector<std::string> ligands;
  std::string protein;
};

Workload make_workload(const Config& config) {
  util::Rng rng(config.seed);
  Workload workload;
  workload.ligands =
      generate_ligands(config.num_ligands, config.max_ligand_len, rng);
  workload.protein = generate_protein(config.protein_len, rng);
  return workload;
}

}  // namespace

std::vector<std::string> generate_ligands(int count, int max_len,
                                          util::Rng& rng) {
  util::require(count >= 1, "generate_ligands: need at least one ligand");
  util::require(max_len >= 1, "generate_ligands: max_len must be positive");
  std::vector<std::string> ligands;
  ligands.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto length =
        static_cast<std::size_t>(rng.uniform_int(1, max_len));
    std::string ligand(length, 'a');
    for (char& ch : ligand) {
      ch = static_cast<char>('a' + rng.next_below(26));
    }
    ligands.push_back(std::move(ligand));
  }
  return ligands;
}

std::string generate_protein(int length, util::Rng& rng) {
  util::require(length >= 1, "generate_protein: length must be positive");
  std::string protein(static_cast<std::size_t>(length), 'a');
  for (char& ch : protein) {
    ch = static_cast<char>('a' + rng.next_below(26));
  }
  return protein;
}

int match_score(const std::string& ligand, const std::string& protein) {
  if (ligand.empty() || protein.empty()) {
    return 0;
  }
  // Two-row LCS dynamic program.
  std::vector<int> previous(protein.size() + 1, 0);
  std::vector<int> current(protein.size() + 1, 0);
  for (std::size_t i = 1; i <= ligand.size(); ++i) {
    for (std::size_t j = 1; j <= protein.size(); ++j) {
      if (ligand[i - 1] == protein[j - 1]) {
        current[j] = previous[j - 1] + 1;
      } else {
        current[j] = std::max(previous[j], current[j - 1]);
      }
    }
    std::swap(previous, current);
  }
  return previous[protein.size()];
}

double match_cost_ops(std::size_t ligand_len, std::size_t protein_len) {
  // The CSinParallel exemplar scores with a plain recursive LCS (no
  // memoization), whose cost explodes with ligand length — that is what
  // makes the workload irregular and the paper's "max ligand 5 -> 7"
  // sweep expensive. We compute scores with an equivalent O(m*n) DP but
  // charge the exemplar's ~n * 2^m recursion cost so the simulated
  // timings reproduce its scaling.
  return kOpsPerRecursionUnit * static_cast<double>(protein_len) *
         std::pow(2.0, static_cast<double>(ligand_len));
}

Result solve_sequential(const Config& config) {
  const Workload workload = make_workload(config);
  std::vector<int> scores = score_all_expected_size(config);

  sim::Machine machine(config.machine);
  const sim::ExecutionReport report = machine.run([&](sim::Context& root) {
    for (std::size_t i = 0; i < workload.ligands.size(); ++i) {
      scores[i] = match_score(workload.ligands[i], workload.protein);
      root.compute(match_cost_ops(workload.ligands[i].size(),
                                  workload.protein.size()),
                   0.1);
    }
  });

  Result result = finalize(config, workload.ligands, scores);
  result.elapsed_seconds = report.makespan_s;
  result.run.sim_report = report;
  return result;
}

Result solve_teachmp(const Config& config) {
  const Workload workload = make_workload(config);
  std::vector<int> scores = score_all_expected_size(config);

  rt::ParallelConfig parallel_config;
  parallel_config.backend = rt::BackendKind::Sim;
  parallel_config.num_threads = config.threads;
  parallel_config.machine = config.machine;

  rt::CostModel cost;
  cost.ops_fn = [&workload](std::int64_t i) {
    return match_cost_ops(
        workload.ligands[static_cast<std::size_t>(i)].size(),
        workload.protein.size());
  };
  cost.mem_intensity = 0.1;

  const rt::RunResult run = rt::parallel_for(
      parallel_config, rt::Range::upto(config.num_ligands), config.schedule,
      [&](std::int64_t i) {
        scores[static_cast<std::size_t>(i)] = match_score(
            workload.ligands[static_cast<std::size_t>(i)], workload.protein);
      },
      cost);

  Result result = finalize(config, workload.ligands, scores);
  result.elapsed_seconds = run.elapsed_seconds();
  result.run = run;
  return result;
}

Result solve_cxx11_threads(const Config& config) {
  const Workload workload = make_workload(config);
  std::vector<int> scores = score_all_expected_size(config);

  sim::Machine machine(config.machine);
  const int threads = config.threads;
  const auto n = static_cast<std::int64_t>(workload.ligands.size());

  const sim::ExecutionReport report = machine.run([&](sim::Context& root) {
    std::vector<sim::ThreadHandle> workers;
    for (int t = 0; t < threads; ++t) {
      workers.push_back(root.spawn([&, t](sim::Context& ctx) {
        // The naive student partition: fixed contiguous block per thread,
        // no balancing of the irregular ligand lengths.
        const std::int64_t begin = t * n / threads;
        const std::int64_t end = (t + 1) * n / threads;
        double block_ops = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          scores[static_cast<std::size_t>(i)] = match_score(
              workload.ligands[static_cast<std::size_t>(i)],
              workload.protein);
          block_ops += match_cost_ops(
              workload.ligands[static_cast<std::size_t>(i)].size(),
              workload.protein.size());
        }
        ctx.compute(block_ops, 0.1);
      }));
    }
    for (const sim::ThreadHandle worker : workers) {
      root.join(worker);
    }
  });

  Result result = finalize(config, workload.ligands, scores);
  result.elapsed_seconds = report.makespan_s;
  result.run.sim_report = report;
  return result;
}

Result solve_mapreduce(const Config& config) {
  const Workload workload = make_workload(config);

  std::vector<std::pair<int, std::string>> inputs;
  inputs.reserve(workload.ligands.size());
  for (std::size_t i = 0; i < workload.ligands.size(); ++i) {
    inputs.emplace_back(static_cast<int>(i), workload.ligands[i]);
  }

  // Warm the shared host pool before the clock starts: the measurement
  // should be the MapReduce pipeline, and repeated calls (the assignment
  // sweep's threads x ligand-length grid) should reuse one pool instead
  // of paying a spawn per cell.
  rt::warm_up(rt::ParallelConfig::host(
      config.threads > 0 ? config.threads : rt::hardware_threads()));

  const auto start = std::chrono::steady_clock::now();
  mapreduce::Job<int, std::string, int, std::string,
                 std::vector<std::string>>
      job;
  job.threads(config.threads)
      .map([&workload](const int&, const std::string& ligand,
                       mapreduce::Emitter<int, std::string>& out) {
        out.emit(match_score(ligand, workload.protein), ligand);
      })
      .reduce([](const int&, const std::vector<std::string>& ligands) {
        std::vector<std::string> sorted = ligands;
        std::sort(sorted.begin(), sorted.end());
        return sorted;
      });
  const auto by_score = job.run(inputs);
  const auto end = std::chrono::steady_clock::now();

  util::ensure(!by_score.empty(), "drugdesign: mapreduce produced nothing");
  Result result;
  result.best_score = by_score.back().first;  // sorted ascending by score
  result.best_ligands = by_score.back().second;
  result.elapsed_seconds =
      std::chrono::duration<double>(end - start).count();
  result.run.host_seconds = result.elapsed_seconds;
  return result;
}

Result solve_cluster(const Config& config, int nodes,
                     const cluster::FaultPlan* faults,
                     cluster::ClusterProfile* profile) {
  util::require(nodes >= 2, "solve_cluster: need a master and a worker");
  const Workload workload = make_workload(config);

  // One task per ligand: the payload is the ligand's index, the result
  // its LCS score. The modelled cost is charged in slices with progress
  // points between, so a straggling worker heartbeats mid-ligand and a
  // crash can hit a task partway through.
  std::vector<std::vector<std::byte>> tasks;
  tasks.reserve(workload.ligands.size());
  for (std::size_t i = 0; i < workload.ligands.size(); ++i) {
    util::Writer writer;
    writer.i32(static_cast<std::int32_t>(i));
    tasks.push_back(writer.take());
  }

  const cluster::TaskFn task_fn =
      [&workload](cluster::TaskContext& ctx, int, mp::ByteView payload) {
        util::Reader reader(payload);
        const auto index = static_cast<std::size_t>(reader.i32());
        const std::string& ligand = workload.ligands[index];
        const int score = match_score(ligand, workload.protein);
        const double total_ops =
            match_cost_ops(ligand.size(), workload.protein.size());
        constexpr int kSlices = 4;
        for (int s = 0; s < kSlices; ++s) {
          ctx.charge(total_ops / kSlices);
          ctx.progress();
        }
        util::Writer writer;
        writer.i32(score);
        return writer.take();
      };

  mp::ClusterSpec spec;
  spec.node = config.machine;
  cluster::SimClusterRun run =
      cluster::run_sim_cluster(nodes, tasks, task_fn, {}, faults, spec);

  std::vector<int> scores = score_all_expected_size(config);
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    util::Reader reader(run.results[i]);
    scores[i] = reader.i32();
  }

  Result result = finalize(config, workload.ligands, scores);
  result.elapsed_seconds = run.profile.stats.makespan_s;
  if (profile != nullptr) {
    *profile = run.profile;
  }
  return result;
}

SourceLines exemplar_source_lines() {
  // Representative sizes of the CSinParallel exemplar's three student
  // programs (sequential, OpenMP, C++11 threads): the OpenMP version adds
  // a handful of pragmas to the sequential code, while the explicit
  // threads version adds thread management, partitioning, and result
  // merging.
  return SourceLines{118, 127, 164};
}

std::vector<ExperimentRow> run_assignment5_experiment(Config base) {
  std::vector<ExperimentRow> rows;
  const auto add_row = [&rows](const std::string& approach, int threads,
                               int max_len, const Result& result) {
    rows.push_back(ExperimentRow{approach, threads, max_len,
                                 result.elapsed_seconds,
                                 result.best_score});
  };

  for (const int max_len : {5, 7}) {
    Config config = base;
    config.max_ligand_len = max_len;

    add_row("sequential", 1, max_len, solve_sequential(config));
    for (const int threads : {4, 5}) {
      config.threads = threads;
      add_row("openmp (TeachMP)", threads, max_len, solve_teachmp(config));
      // Same TeachMP solution on the work-stealing schedule: the
      // irregular 2^len ligand costs are exactly the imbalance stealing
      // is built for.
      Config steal_config = config;
      steal_config.schedule = rt::Schedule::steal();
      add_row("teachmp steal", threads, max_len,
              solve_teachmp(steal_config));
      add_row("c++11 threads", threads, max_len,
              solve_cxx11_threads(config));
    }
  }
  return rows;
}

}  // namespace pblpar::drugdesign
