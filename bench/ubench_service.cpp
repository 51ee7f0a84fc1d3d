// Load generator for the campus server (src/service): many tenants
// submitting mixed jobs — patternlet loops, drug-design sweeps, MapReduce
// word counts, simulated-cluster word counts — through one multi-tenant
// service::Server. Four phases:
//
//   fairness     lanes=1 saturation: dispatch order is the stride
//                scheduler's alone, so per-tenant completions in a window
//                must track the 8/4/2/1 weights (within 1.25x).
//   burst        both lanes gated, then >= 1000 submissions pile up
//                in flight; the admission queue must absorb them and the
//                drain must finish with every job Done.
//   backpressure depth=64 + Reject: the flood past the limit is shed,
//                every rejected ticket carries retry_after > 0, and the
//                queue high-water never passes the limit.
//   latency      open-loop seeded arrivals of the mixed job types from 4
//                tenants; reports p50/p99 sojourn and throughput.
//
// Results go to BENCH_service.json in the working directory. --smoke
// shrinks the fairness window and the arrival count (it still drives the
// full >= 1000-job burst — that is the tentpole capacity claim) so the
// bench-smoke ctest finishes in well under a second of work on the
// deterministic phases.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "drugdesign/drugdesign.hpp"
#include "harness.hpp"
#include "rt/parallel.hpp"
#include "service/jobs.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace {

namespace bench = pblpar::bench;
namespace util = pblpar::util;
using pblpar::service::AdmissionPolicy;
using pblpar::service::Job;
using pblpar::service::JobContext;
using pblpar::service::JobOptions;
using pblpar::service::JobOutcome;
using pblpar::service::JobResult;
using pblpar::service::JobStatus;
using pblpar::service::JobTicket;
using pblpar::service::Server;
using pblpar::service::ServerOptions;
using pblpar::service::ServerStats;
using pblpar::service::TenantConfig;

/// A job that spins until released; pins one lane so submissions queue
/// up behind it deterministically.
struct Gate {
  std::atomic<bool> open{false};

  Job job() {
    Job gate_job;
    gate_job.kind = "gate";
    gate_job.run = [this](JobContext& context) {
      while (!open.load(std::memory_order_acquire) &&
             !context.cancel_token().cancel_requested()) {
        std::this_thread::yield();
      }
      return JobOutcome{};
    };
    return gate_job;
  }
};

struct TenantShare {
  std::string name;
  double weight = 0.0;
  std::int64_t window_completions = 0;
  double share = 0.0;
  double expected = 0.0;
  double ratio = 0.0;  // share / expected
};

struct FairnessResult {
  std::int64_t window = 0;
  std::vector<TenantShare> tenants;
  double max_ratio = 0.0;
  double min_ratio = 0.0;
  std::uint64_t light_first_completion = 0;
};

// The four course tenants with deliberately skewed shares: the intro
// section bought 8x the cluster time of the seminar.
const std::vector<TenantConfig> kTenants = {
    {"physics", 8.0}, {"chem", 4.0}, {"bio", 2.0}, {"cs", 1.0}};

FairnessResult run_fairness(std::int64_t jobs_per_tenant,
                            std::int64_t window) {
  std::vector<TenantConfig> tenants = kTenants;
  tenants.push_back({"ops", 1.0});  // gate-only tenant
  ServerOptions options;
  options.lanes = 1;  // dispatch order == stride-scheduler order
  options.max_queue_depth = static_cast<int>(
      jobs_per_tenant * static_cast<std::int64_t>(kTenants.size()) + 8);
  Server server(tenants, options);

  Gate gate;
  server.submit("ops", gate.job());
  std::vector<std::vector<JobTicket>> tickets(kTenants.size());
  for (std::int64_t j = 0; j < jobs_per_tenant; ++j) {
    for (std::size_t t = 0; t < kTenants.size(); ++t) {
      tickets[t].push_back(server.submit(
          kTenants[t].name,
          pblpar::service::jobs::patternlet(64, pblpar::rt::Schedule::dynamic(16),
                                            2)));
    }
  }
  gate.open.store(true, std::memory_order_release);
  server.drain();

  // The gate finishes first (completion 1); the fairness window is the
  // next `window` completions, while every tenant still has backlog.
  FairnessResult result;
  result.window = window;
  double weight_sum = 0.0;
  for (const TenantConfig& tenant : kTenants) {
    weight_sum += tenant.weight;
  }
  for (std::size_t t = 0; t < kTenants.size(); ++t) {
    TenantShare share;
    share.name = kTenants[t].name;
    share.weight = kTenants[t].weight;
    std::uint64_t first = 0;
    for (const JobTicket& ticket : tickets[t]) {
      const std::uint64_t seq = ticket.wait().completion_seq;
      if (first == 0 || seq < first) {
        first = seq;
      }
      if (seq >= 2 && seq < 2 + static_cast<std::uint64_t>(window)) {
        ++share.window_completions;
      }
    }
    if (kTenants[t].weight == 1.0) {
      result.light_first_completion = first;
    }
    share.share = static_cast<double>(share.window_completions) /
                  static_cast<double>(window);
    share.expected = kTenants[t].weight / weight_sum;
    share.ratio = share.share / share.expected;
    result.tenants.push_back(share);
  }
  result.max_ratio = result.tenants.front().ratio;
  result.min_ratio = result.tenants.front().ratio;
  for (const TenantShare& share : result.tenants) {
    result.max_ratio = std::max(result.max_ratio, share.ratio);
    result.min_ratio = std::min(result.min_ratio, share.ratio);
  }
  return result;
}

struct BurstResult {
  std::int64_t submitted = 0;
  int in_flight_high_water = 0;
  int queue_depth_high_water = 0;
  int depth_limit = 0;
  double drain_seconds = 0.0;
  double throughput_jobs_per_s = 0.0;
  std::int64_t completed = 0;
  bool depth_bounded = false;  // after the drain
};

BurstResult run_burst(std::int64_t jobs) {
  std::vector<TenantConfig> tenants = kTenants;
  tenants.push_back({"ops", 1.0});
  ServerOptions options;
  options.lanes = 2;
  options.max_queue_depth = static_cast<int>(jobs + 8);
  Server server(tenants, options);

  Gate gate;  // one Gate releases both lane-pinning jobs
  server.submit("ops", gate.job());
  server.submit("ops", gate.job());
  std::vector<JobTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(jobs));
  for (std::int64_t j = 0; j < jobs; ++j) {
    tickets.push_back(server.submit(
        kTenants[static_cast<std::size_t>(j) % kTenants.size()].name,
        pblpar::service::jobs::patternlet(32, pblpar::rt::Schedule::dynamic(8),
                                          1)));
  }
  const ServerStats loaded = server.stats();
  const auto release_at = bench::Clock::now();
  gate.open.store(true, std::memory_order_release);
  server.drain();
  const double drain_seconds = bench::seconds_since(release_at);

  BurstResult result;
  result.submitted = jobs;
  result.in_flight_high_water = loaded.in_flight_high_water;
  result.queue_depth_high_water = loaded.queue_depth_high_water;
  result.depth_limit = options.max_queue_depth;
  result.drain_seconds = drain_seconds;
  result.throughput_jobs_per_s =
      result.drain_seconds > 0.0
          ? static_cast<double>(jobs) / result.drain_seconds
          : 0.0;
  for (const JobTicket& ticket : tickets) {
    if (ticket.wait().status == JobStatus::Done) {
      ++result.completed;
    }
  }
  result.depth_bounded =
      server.stats().queue_depth_high_water <= options.max_queue_depth;
  return result;
}

struct BackpressureResult {
  int depth_limit = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  double min_retry_after_s = 0.0;
  int queue_depth_high_water = 0;
  std::int64_t completed = 0;
  bool all_rejected_have_retry_after = false;
};

BackpressureResult run_backpressure(int depth, std::int64_t flood) {
  std::vector<TenantConfig> tenants = kTenants;
  tenants.push_back({"ops", 1.0});
  ServerOptions options;
  options.lanes = 1;
  options.max_queue_depth = depth;
  options.admission = AdmissionPolicy::Reject;
  Server server(tenants, options);

  Gate gate;
  JobTicket gate_ticket = server.submit("ops", gate.job());
  while (gate_ticket.status() == JobStatus::Queued) {
    std::this_thread::yield();
  }
  BackpressureResult result;
  result.depth_limit = depth;
  result.all_rejected_have_retry_after = true;
  result.min_retry_after_s = -1.0;
  std::vector<JobTicket> tickets;
  for (std::int64_t j = 0; j < depth + flood; ++j) {
    tickets.push_back(server.submit(
        kTenants[static_cast<std::size_t>(j) % kTenants.size()].name,
        pblpar::service::jobs::patternlet(32, pblpar::rt::Schedule::dynamic(8),
                                          1)));
    const JobTicket& ticket = tickets.back();
    if (ticket.status() == JobStatus::Rejected) {
      ++result.rejected;
      const JobResult rejected = ticket.wait();
      if (rejected.retry_after_s <= 0.0) {
        result.all_rejected_have_retry_after = false;
      }
      if (result.min_retry_after_s < 0.0 ||
          rejected.retry_after_s < result.min_retry_after_s) {
        result.min_retry_after_s = rejected.retry_after_s;
      }
    } else {
      ++result.accepted;
    }
  }
  gate.open.store(true, std::memory_order_release);
  server.drain();
  for (const JobTicket& ticket : tickets) {
    if (ticket.wait().status == JobStatus::Done) {
      ++result.completed;
    }
  }
  const ServerStats stats = server.stats();
  result.queue_depth_high_water = stats.queue_depth_high_water;
  return result;
}

struct LatencyResult {
  std::int64_t jobs = 0;
  double arrival_rate_hz = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double makespan_s = 0.0;
  double throughput_jobs_per_s = 0.0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  std::int64_t rejected = 0;
};

Job make_mixed_job(pblpar::util::Rng& rng) {
  const double pick = rng.next_double();
  if (pick < 0.70) {
    return pblpar::service::jobs::patternlet(
        rng.uniform_int(512, 4096), pblpar::rt::Schedule::steal(), 4);
  }
  if (pick < 0.85) {
    std::vector<std::string> documents(
        static_cast<std::size_t>(rng.uniform_int(4, 12)),
        "students measure speedup and amdahl ceilings on shared lab "
        "machines while the campus server keeps tenants honest");
    return pblpar::service::jobs::mapreduce_word_count(std::move(documents));
  }
  if (pick < 0.95) {
    pblpar::drugdesign::Config config;
    config.num_ligands = static_cast<int>(rng.uniform_int(8, 24));
    config.max_ligand_len = 4;
    config.protein_len = 200;
    config.seed = rng.next_u64();
    return pblpar::service::jobs::drugdesign_sweep(config);
  }
  return pblpar::service::jobs::cluster_word_count(
      {"distributed word count on simulated ranks",
       "rank zero masters the job"},
      3);
}

LatencyResult run_latency(std::int64_t jobs, double rate_hz,
                          std::uint64_t seed) {
  ServerOptions options;
  options.lanes = 2;
  options.max_queue_depth = static_cast<int>(jobs + 8);
  Server server(kTenants, options);

  pblpar::util::Rng rng(seed);
  // Open loop: arrival times are drawn up front (exponential gaps) and
  // honoured with sleep_until, independent of completions — a slow
  // server cannot slow the arrivals down, which is what makes queueing
  // visible in the sojourn times.
  const auto start = bench::Clock::now();
  std::vector<JobTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(jobs));
  double arrival_s = 0.0;
  for (std::int64_t j = 0; j < jobs; ++j) {
    arrival_s += -std::log(1.0 - rng.next_double()) / rate_hz;
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(arrival_s));
    const std::size_t tenant = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(kTenants.size())));
    tickets.push_back(server.submit(kTenants[tenant].name,
                                    make_mixed_job(rng)));
  }
  server.drain();
  const double makespan = bench::seconds_since(start);

  LatencyResult result;
  result.jobs = jobs;
  result.arrival_rate_hz = rate_hz;
  result.makespan_s = makespan;
  std::vector<double> sojourns;
  for (const JobTicket& ticket : tickets) {
    const JobResult job_result = ticket.wait();
    switch (job_result.status) {
      case JobStatus::Done:
        ++result.done;
        sojourns.push_back(job_result.queued_s + job_result.service_s);
        break;
      case JobStatus::Failed:
        ++result.failed;
        break;
      case JobStatus::Rejected:
        ++result.rejected;
        break;
      default:
        break;
    }
  }
  std::sort(sojourns.begin(), sojourns.end());
  const auto percentile = [&](double p) {
    if (sojourns.empty()) {
      return 0.0;
    }
    const auto index = static_cast<std::size_t>(
        p * static_cast<double>(sojourns.size() - 1));
    return sojourns[index];
  };
  result.p50_s = percentile(0.50);
  result.p99_s = percentile(0.99);
  result.throughput_jobs_per_s =
      makespan > 0.0 ? static_cast<double>(result.done) / makespan : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_flag(argc, argv);

  pblpar::rt::warm_up(pblpar::rt::ParallelConfig::host(2));

  // Fairness window: a multiple of the weight sum (15), so the stride
  // schedule's proportions are exact within the window. Backlog per
  // tenant must exceed the heaviest tenant's window share (8/15 of the
  // window) or the window would measure a drained queue, not the
  // scheduler.
  const std::int64_t fairness_jobs = smoke ? 60 : 200;
  const std::int64_t fairness_window = smoke ? 90 : 300;
  const FairnessResult fairness = run_fairness(fairness_jobs, fairness_window);
  std::printf("fairness (lanes=1, window=%lld):\n",
              static_cast<long long>(fairness.window));
  for (const TenantShare& share : fairness.tenants) {
    std::printf("  %-8s w=%.0f  %lld/%lld  share=%.3f expected=%.3f "
                "ratio=%.3f\n",
                share.name.c_str(), share.weight,
                static_cast<long long>(share.window_completions),
                static_cast<long long>(fairness.window), share.share,
                share.expected, share.ratio);
  }

  // The capacity claim is not scaled down in smoke mode: the queue is a
  // vector push under one lock, so 1200 pending submissions stay cheap.
  const std::int64_t burst_jobs = 1200;
  const BurstResult burst = run_burst(burst_jobs);
  std::printf("burst: %lld jobs, in-flight high water %d, drain %.3f s "
              "(%.0f jobs/s)\n",
              static_cast<long long>(burst.submitted),
              burst.in_flight_high_water, burst.drain_seconds,
              burst.throughput_jobs_per_s);

  const int backpressure_depth = 64;
  const std::int64_t backpressure_flood = smoke ? 100 : 400;
  const BackpressureResult backpressure =
      run_backpressure(backpressure_depth, backpressure_flood);
  std::printf("backpressure: depth %d, accepted %lld, rejected %lld, min "
              "retry-after %.6f s, high water %d\n",
              backpressure.depth_limit,
              static_cast<long long>(backpressure.accepted),
              static_cast<long long>(backpressure.rejected),
              backpressure.min_retry_after_s,
              backpressure.queue_depth_high_water);

  const std::int64_t latency_jobs = smoke ? 60 : 400;
  const double latency_rate_hz = smoke ? 2000.0 : 1500.0;
  const LatencyResult latency =
      run_latency(latency_jobs, latency_rate_hz, 0xC0FFEEULL);
  std::printf("latency: %lld open-loop jobs @ %.0f Hz, p50 %.6f s, p99 "
              "%.6f s, %.0f jobs/s\n",
              static_cast<long long>(latency.jobs), latency.arrival_rate_hz,
              latency.p50_s, latency.p99_s, latency.throughput_jobs_per_s);

  bench::Checks checks;
  checks.add({.name = "fair_share_within_1p25x",
              .passed = fairness.max_ratio <= 1.25 &&
                        fairness.min_ratio >= 0.8});
  // One full stride cycle (sum of weights = 15 dispatches) guarantees
  // every tenant a dispatch; + the gate completion = 16.
  checks.add({.name = "light_tenant_not_starved",
              .passed = fairness.light_first_completion > 0 &&
                        fairness.light_first_completion <= 16});
  checks.add({.name = "burst_sustains_1000_in_flight",
              .passed = burst.in_flight_high_water >= 1000 &&
                        burst.completed == burst.submitted &&
                        burst.depth_bounded});
  const bool backpressure_bounded =
      backpressure.queue_depth_high_water <= backpressure.depth_limit;
  // Implied by the burst and backpressure checks, so it only reports.
  checks.add({.name = "queue_depth_bounded",
              .passed = burst.depth_bounded && backpressure_bounded,
              .gates = false});
  checks.add({.name = "rejected_report_retry_after",
              .passed = backpressure.all_rejected_have_retry_after &&
                        backpressure.rejected > 0 && backpressure_bounded &&
                        backpressure.completed == backpressure.accepted});
  checks.add({.name = "latency_no_failures",
              .passed = latency.failed == 0 && latency.rejected == 0 &&
                        latency.done == latency.jobs});
  checks.print();

  util::Json json(util::Json::Style::indented);
  json.begin_object().fields("bench", "ubench_service", "smoke", smoke);
  json.key("fairness").begin_object().fields(
      "lanes", 1, "window", fairness.window,
      "max_ratio", fairness.max_ratio, "min_ratio", fairness.min_ratio,
      "light_first_completion", fairness.light_first_completion);
  json.key("tenants").begin_array();
  for (const TenantShare& share : fairness.tenants) {
    json.object("name", share.name, "weight", share.weight,
                "window_completions", share.window_completions,
                "share", share.share, "expected", share.expected,
                "ratio", share.ratio);
  }
  json.end_array().end_object();
  json.key("burst").object(
      "submitted", burst.submitted,
      "in_flight_high_water", burst.in_flight_high_water,
      "queue_depth_high_water", burst.queue_depth_high_water,
      "depth_limit", burst.depth_limit,
      "drain_seconds", burst.drain_seconds,
      "throughput_jobs_per_s", burst.throughput_jobs_per_s,
      "completed", burst.completed);
  json.key("backpressure").object(
      "depth_limit", backpressure.depth_limit,
      "accepted", backpressure.accepted, "rejected", backpressure.rejected,
      "min_retry_after_s", backpressure.min_retry_after_s,
      "queue_depth_high_water", backpressure.queue_depth_high_water,
      "completed", backpressure.completed);
  json.key("latency").object(
      "jobs", latency.jobs, "arrival_rate_hz", latency.arrival_rate_hz,
      "p50_s", latency.p50_s, "p99_s", latency.p99_s,
      "makespan_s", latency.makespan_s,
      "throughput_jobs_per_s", latency.throughput_jobs_per_s,
      "done", latency.done, "failed", latency.failed,
      "rejected", latency.rejected);
  json.key("checks").begin_object();
  checks.write(json);
  json.end_object().end_object();
  bench::write_file("BENCH_service.json", json);

  // Every phase here is structural (gated queues, deterministic stride
  // order), not timing-sensitive, so the exit code follows the checks
  // directly — raw latency numbers only report.
  return checks.exit_code();
}
