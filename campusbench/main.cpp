// Campus-server benchmark for pblpar: drives service::Server with one of
// three seeded workloads, checks every job's output against a reference
// computed in set-up, and prints every metric by name and unit. The last
// line of standard output is one JSON object (correct, attempted, failed,
// metrics): the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1.
//
//   campusbench --workload <campus_open|wordcount_spill|lossy_cluster>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--commit <id>] [--source-digest <hex>]
//
// Every job is a service::Job lambda written here; it calls the public
// entry points of rt, mapreduce, oocore, mp, cluster, sim and drugdesign
// and times those calls from outside. README.md in this directory lists
// the workloads and which end-to-end metric each layer metric moves.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fcntl.h>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/jobs.hpp"
#include "drugdesign/drugdesign.hpp"
#include "mapreduce/defs.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "mp/buffer.hpp"
#include "mp/sim_world.hpp"
#include "rt/for_each.hpp"
#include "rt/host_backend.hpp"
#include "rt/parallel.hpp"
#include "service/server.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

namespace cluster = pblpar::cluster;
namespace drugdesign = pblpar::drugdesign;
namespace mapreduce = pblpar::mapreduce;
namespace mp = pblpar::mp;
namespace rt = pblpar::rt;
namespace svc = pblpar::service;
namespace util = pblpar::util;

using campusbench::Layer;
using campusbench::LayerTimes;
using campusbench::Quantile;
using Clock = std::chrono::steady_clock;
using WordCounts = std::vector<std::pair<std::string, long>>;
using Records = std::vector<std::pair<int, std::string>>;

/// Seed kept out of every tuning run; a later change confirms a claimed
/// gain on it (see README.md).
constexpr std::uint64_t kHeldOutSeed = 9001;

/// Cold set-ups per run (each in a fresh process); setup_s is their median.
constexpr int kSetupProbes = 15;

constexpr double kWarmupSeconds = 1.0;

/// Windows the peak resident set is read in (see RssSampler).
constexpr int kWindows = 10;

/// Slices of campus_open's capacity drain, by completion time (see
/// end_to_end).
constexpr int kDrainSlices = 40;

double since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// --- Inputs -----------------------------------------------------------------

/// Random words of 3-10 letters with Zipf(1) weights. Each workload draws
/// its vocabulary from a fixed seed, so runs differ in their documents,
/// not in the language they are written in.
struct Vocabulary {
  std::vector<std::string> words;
  std::vector<double> cdf;  // running sum of 1/rank

  explicit Vocabulary(int size) {
    util::Rng rng(0x70CAB ^ static_cast<std::uint64_t>(size));
    double mass = 0.0;
    for (int i = 0; i < size; ++i) {
      std::string word;
      const auto length = rng.uniform_int(3, 10);
      for (std::int64_t k = 0; k < length; ++k) {
        word += static_cast<char>('a' + rng.next_below(26));
      }
      words.push_back(std::move(word));
      mass += 1.0 / static_cast<double>(i + 1);
      cdf.push_back(mass);
    }
  }

  const std::string& draw(util::Rng& rng) const {
    const double u = rng.next_double() * cdf.back();
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return words[std::min(rank, words.size() - 1)];
  }
};

/// Documents of `words_per_doc` words drawn from `vocabulary`, until
/// `bytes` of text.
std::vector<std::string> make_corpus(util::Rng& rng,
                                     const Vocabulary& vocabulary,
                                     std::size_t bytes, int words_per_doc) {
  std::vector<std::string> documents;
  std::size_t total = 0;
  while (total < bytes) {
    std::string document;
    for (int k = 0; k < words_per_doc; ++k) {
      document += vocabulary.draw(rng);
      document += ' ';
    }
    total += document.size();
    documents.push_back(std::move(document));
  }
  return documents;
}

std::int64_t text_bytes(const std::vector<std::string>& documents) {
  std::int64_t bytes = 0;
  for (const std::string& document : documents) {
    bytes += static_cast<std::int64_t>(document.size());
  }
  return bytes;
}

/// One word-count input with its reference output.
struct Corpus {
  std::vector<std::string> documents;
  Records records;  // mapreduce::defs::indexed(documents)
  std::int64_t bytes = 0;
  WordCounts reference;  // mapreduce::word_count(documents)
  std::uint64_t chaos_seed = 0;  // lossy wire only
};

Corpus make_word_input(util::Rng& rng, const Vocabulary& vocabulary,
                       std::size_t bytes, int words_per_doc) {
  Corpus corpus;
  corpus.documents = make_corpus(rng, vocabulary, bytes, words_per_doc);
  corpus.records = mapreduce::defs::indexed(corpus.documents);
  corpus.bytes = text_bytes(corpus.documents);
  corpus.reference = mapreduce::word_count(corpus.documents);
  corpus.chaos_seed = rng.next_u64();
  return corpus;
}

/// One drug-design sweep input with its reference best score.
struct Sweep {
  std::vector<std::string> ligands;
  std::string protein;
  std::int64_t bytes = 0;
  int best = 0;
  std::int64_t winners = 0;
};

Sweep make_sweep(util::Rng& rng, int min_ligands, int max_ligands) {
  Sweep sweep;
  sweep.ligands = drugdesign::generate_ligands(
      static_cast<int>(rng.uniform_int(min_ligands, max_ligands)), 4, rng);
  sweep.protein = drugdesign::generate_protein(200, rng);
  sweep.bytes = text_bytes(sweep.ligands) +
                static_cast<std::int64_t>(sweep.protein.size());
  for (const std::string& ligand : sweep.ligands) {
    const int score = drugdesign::match_score(ligand, sweep.protein);
    if (score > sweep.best) {
      sweep.best = score;
      sweep.winners = 1;
    } else if (score == sweep.best) {
      ++sweep.winners;
    }
  }
  return sweep;
}

// --- Per-job records ----------------------------------------------------------

enum class Kind : std::uint8_t { Patternlet, MapReduce, DrugDesign, Cluster };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::Patternlet:
      return "patternlet";
    case Kind::MapReduce:
      return "mapreduce";
    case Kind::DrugDesign:
      return "drugdesign";
    case Kind::Cluster:
      return "cluster";
  }
  return "?";
}

/// Counters one job's run reports through public structs. Counters that
/// only a traced run fills stay 0 untraced.
struct JobCounts {
  std::int64_t spilled_runs = 0;
  std::int64_t spilled_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t payload_bytes = 0;
  double completion_virtual_s = 0.0;  // traced
  std::uint64_t retransmits = 0;      // traced
  std::uint64_t data_sent = 0;        // traced
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t abandoned = 0;
  std::int64_t attempts = 0;
  std::int64_t tasks = 0;
  std::int64_t requeues = 0;

  /// The counters a deterministic program repeats exactly for one input.
  bool same_as(const JobCounts& other) const {
    return spilled_runs == other.spilled_runs &&
           messages == other.messages &&
           payload_bytes == other.payload_bytes &&
           completion_virtual_s == other.completion_virtual_s &&
           retransmits == other.retransmits && attempts == other.attempts;
  }
};

/// What one job left behind. The client writes the submit-side fields,
/// the lane that runs the job writes the body-side fields, and the client
/// reads them all after the ticket settles. Times are seconds since the
/// phase's epoch.
struct JobRecord {
  Kind kind = Kind::Patternlet;
  int tenant = 0;
  int input = 0;  // index into the workload's input pool
  std::int64_t iterations = 0;  // patternlet only
  std::int64_t input_bytes = 0;

  double due = 0.0;   // when the job was due to be sent
  double call = 0.0;  // submit() called
  double ret = 0.0;   // submit() returned
  double body0 = 0.0;  // job body's first instruction
  double body1 = 0.0;  // job body's last instruction
  double call_s = 0.0;  // the public call the body wraps
  double queued_s = 0.0;   // JobResult::queued_s
  double service_s = 0.0;  // JobResult::service_s
  svc::JobStatus status = svc::JobStatus::Queued;
  bool output_ok = false;
  std::string mismatch;

  JobCounts counts;
  /// Traced runs: the split of the rt region (patternlet, drug design) or
  /// of the map region, and of the reduce region. The lane reads them off
  /// the profiles after the body's end, so a traced run need not keep a
  /// profile per job.
  std::optional<campusbench::RegionSplit> region;
  std::optional<campusbench::RegionSplit> reduce_region;

  /// When the server finished the job: submitted + queued + service, read
  /// from the submit() call, which precedes the server's own timestamp by
  /// a fraction of a microsecond; never before the body's end.
  double done() const {
    return std::max(body1, call + queued_s + service_s);
  }
  double sojourn() const { return done() - due; }
  /// Moves every timestamp by `seconds`, as if measured against an epoch
  /// that many seconds earlier.
  void shift(double seconds) {
    due += seconds;
    call += seconds;
    ret += seconds;
    body0 += seconds;
    body1 += seconds;
  }
  double body_s() const { return body1 - body0; }
  bool good() const { return status == svc::JobStatus::Done && output_ok; }
};

// --- Job bodies -------------------------------------------------------------

/// Busy work proportional to `units`, as in service::jobs::patternlet.
void spin(std::int64_t units) {
  volatile double sink = 0.0;
  for (std::int64_t k = 0; k < units; ++k) {
    sink = sink + static_cast<double>(k);
  }
}

constexpr std::int64_t kPatternletSpin = 4;

void keep_split(const std::shared_ptr<const rt::RunProfile>& profile,
                std::optional<campusbench::RegionSplit>& split) {
  if (profile) {
    split = campusbench::split_region(*profile);
  }
}

svc::Job patternlet_job(JobRecord& rec, Clock::time_point epoch) {
  svc::Job job;
  job.kind = "patternlet";
  job.run = [&rec, epoch](svc::JobContext& context) {
    rec.body0 = since(epoch);
    const std::int64_t n = rec.iterations;
    std::vector<std::int64_t> partial(
        static_cast<std::size_t>(context.threads()), 0);
    const auto call = Clock::now();
    const rt::RunResult run =
        rt::parallel(context.parallel_config(), [&](rt::TeamContext& tc) {
          std::int64_t sum = 0;
          rt::for_each(tc, rt::Range::upto(n), rt::Schedule::steal(),
                       [&](std::int64_t i) {
                         spin(kPatternletSpin);
                         sum += i;
                       });
          partial[static_cast<std::size_t>(tc.thread_num())] = sum;
        });
    rec.call_s = since(call);
    const std::int64_t sum =
        std::accumulate(partial.begin(), partial.end(), std::int64_t{0});
    rec.output_ok = sum == n * (n - 1) / 2;
    rec.body1 = since(epoch);
    keep_split(run.profile, rec.region);
    svc::JobOutcome outcome;
    outcome.work_items = n;
    return outcome;
  };
  return job;
}

svc::Job drug_job(JobRecord& rec, const Sweep& sweep,
                  Clock::time_point epoch) {
  svc::Job job;
  job.kind = "drugdesign";
  job.run = [&rec, &sweep, epoch](svc::JobContext& context) {
    rec.body0 = since(epoch);
    std::vector<int> scores(sweep.ligands.size(), 0);
    const auto call = Clock::now();
    const rt::RunResult run =
        rt::parallel(context.parallel_config(), [&](rt::TeamContext& tc) {
          rt::for_each(
              tc,
              rt::Range::upto(static_cast<std::int64_t>(scores.size())),
              rt::Schedule::dynamic(1), [&](std::int64_t i) {
                const auto index = static_cast<std::size_t>(i);
                scores[index] =
                    drugdesign::match_score(sweep.ligands[index],
                                            sweep.protein);
              });
        });
    rec.call_s = since(call);
    const int best = *std::max_element(scores.begin(), scores.end());
    const auto winners = std::count(scores.begin(), scores.end(), best);
    rec.output_ok = best == sweep.best && winners == sweep.winners;
    rec.body1 = since(epoch);
    keep_split(run.profile, rec.region);
    svc::JobOutcome outcome;
    outcome.work_items = static_cast<std::int64_t>(scores.size());
    return outcome;
  };
  return job;
}

/// Word count through mapreduce::Job at the job's width; with a budget,
/// the shuffle spills through oocore.
svc::Job mapreduce_job(JobRecord& rec, const Corpus& corpus,
                       std::int64_t budget_bytes, const WordCounts& expected,
                       Clock::time_point epoch) {
  svc::Job job;
  job.kind = "mapreduce";
  job.run = [&rec, &corpus, budget_bytes, &expected,
             epoch](svc::JobContext& context) {
    rec.body0 = since(epoch);
    mapreduce::Job<int, std::string, std::string, long> word_count;
    mapreduce::defs::WordCountDef{}.configure(word_count);
    word_count.threads(context.threads()).traced(context.traced());
    if (budget_bytes > 0) {
      word_count.memory_budget_bytes(budget_bytes);
    }
    mapreduce::RunReport report;
    const auto call = Clock::now();
    const WordCounts counts = word_count.run(corpus.records, &report);
    rec.call_s = since(call);
    rec.mismatch = campusbench::first_mismatch(expected, counts);
    rec.output_ok = rec.mismatch.empty();
    rec.counts.spilled_runs = report.spilled_runs;
    rec.counts.spilled_bytes = report.spilled_bytes;
    rec.body1 = since(epoch);
    keep_split(report.map_profile, rec.region);
    keep_split(report.reduce_profile, rec.reduce_region);
    svc::JobOutcome outcome;
    outcome.work_items = report.mapped_records;
    return outcome;
  };
  return job;
}

/// Distributed word count on `ranks` simulated ranks; `drop` > 0 makes
/// the wire lossy and turns the cluster's reliability layer on.
svc::Job cluster_job(JobRecord& rec, const Corpus& corpus, int ranks,
                     double drop, Clock::time_point epoch) {
  svc::Job job;
  job.kind = "cluster";
  job.run = [&rec, &corpus, ranks, drop, epoch](svc::JobContext& context) {
    rec.body0 = since(epoch);
    cluster::ClusterOptions options;
    mp::ClusterSpec spec;
    if (drop > 0.0) {
      options.reliability.enabled = true;
      options.reliability.seed = corpus.chaos_seed;
      spec.chaos.all.drop = drop;
      spec.chaos.seed = corpus.chaos_seed;
    }
    cluster::ClusterProfile profile;
    cluster::ClusterProfile* const wanted =
        context.traced() ? &profile : nullptr;
    WordCounts counts;
    const auto call = Clock::now();
    const mp::ClusterReport report = mp::SimWorld::run(
        ranks,
        [&](mp::SimComm& comm) {
          WordCounts result = cluster::jobs::word_count(
              comm, corpus.documents, {}, options, nullptr,
              comm.rank() == 0 ? wanted : nullptr);
          if (comm.rank() == 0) {
            counts = std::move(result);
          }
        },
        spec);
    rec.call_s = since(call);
    rec.mismatch = campusbench::first_mismatch(corpus.reference, counts);
    rec.output_ok = rec.mismatch.empty();
    JobCounts& c = rec.counts;
    c.messages = report.messages;
    c.payload_bytes = report.payload_bytes;
    c.completion_virtual_s = profile.stats.completion_s;
    c.retransmits = profile.retry.retransmits;
    c.data_sent = profile.retry.data_sent;
    c.duplicates_dropped = profile.retry.duplicates_dropped;
    c.abandoned = profile.retry.abandoned;
    c.attempts = profile.stats.attempts;
    c.tasks = profile.stats.tasks;
    c.requeues = profile.stats.requeues;
    rec.body1 = since(epoch);
    svc::JobOutcome outcome;
    outcome.work_items = static_cast<std::int64_t>(corpus.documents.size());
    return outcome;
  };
  return job;
}

// --- Peak RSS ---------------------------------------------------------------

/// Samples the process's resident set every 10 ms while alive. Sampling,
/// not the kernel's high-water mark, so the reference runs in set-up do
/// not count.
class RssSampler {
 public:
  RssSampler()
      : fd_(::open("/proc/self/statm", O_RDONLY)), start_(Clock::now()) {
    sample();
    thread_ = std::thread([this] { loop(); });
  }
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// The largest sample of each of kWindows windows of [0, span) seconds
  /// since construction, then the median of those peaks: the peak a
  /// typical stretch of the run reaches, which one allocator outlier does
  /// not set.
  double peak_mb(double span) {
    std::lock_guard<std::mutex> guard(mu_);
    const std::vector<double> peaks = campusbench::per_window(
        samples_, span, kWindows, [](const std::vector<double>& values) {
          return *std::max_element(values.begin(), values.end());
        });
    return campusbench::median(peaks).value;
  }

 private:
  void sample() {
    char text[128] = {};
    if (fd_ < 0 || ::pread(fd_, text, sizeof(text) - 1, 0) <= 0) {
      return;
    }
    unsigned long size = 0;
    unsigned long resident = 0;
    if (std::sscanf(text, "%lu %lu", &size, &resident) == 2) {
      samples_.emplace_back(since(start_),
                            static_cast<double>(resident) *
                                static_cast<double>(::sysconf(_SC_PAGESIZE)) /
                                1e6);
    }
  }
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(10),
                         [this] { return stop_; })) {
      sample();
    }
  }

  int fd_;
  Clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<double, double>> samples_;  // (seconds, MB)
  std::thread thread_;
};

// --- Workloads --------------------------------------------------------------

/// Process-wide counters of the mp buffer pool, mp payload copies and
/// rt's spawned (not pooled) regions.
struct ProcessCounters {
  mp::CopyStats copies;
  mp::PoolStats pool;
  std::uint64_t spawned_regions = 0;

  static ProcessCounters read() {
    return {mp::payload_copy_stats(), mp::buffer_pool_stats(),
            rt::pool_snapshot().spawned_regions};
  }

  /// What was counted since `before` was read.
  static ProcessCounters counted_since(const ProcessCounters& before) {
    const ProcessCounters now = read();
    ProcessCounters delta;
    delta.copies.copies = now.copies.copies - before.copies.copies;
    delta.copies.bytes = now.copies.bytes - before.copies.bytes;
    delta.pool.hits = now.pool.hits - before.pool.hits;
    delta.pool.misses = now.pool.misses - before.pool.misses;
    delta.spawned_regions = now.spawned_regions - before.spawned_regions;
    return delta;
  }
};

/// Everything one measured phase produced.
struct Phase {
  bool traced = false;
  std::deque<JobRecord> jobs;
  double seconds = 0.0;  // how long the loop sent jobs
  double wall_s = 0.0;   // phase epoch to the last Done
  int passes = 1;       // closed loops: whole passes over the input pool
  int queue_depth_high_water = 0;
  ProcessCounters counters;  // counted during the phase
  double peak_rss_mb = 0.0;
  /// Capacity measurement, when the workload takes one apart from its
  /// main loop (see Workload::add_capacity). Backlog times count from the
  /// drain's start.
  std::deque<JobRecord> backlog;
  double backlog_s = 0.0;

  /// Appends `next`, measured after this phase, as if its loop and its
  /// drain had continued this phase's: its jobs' times move past this
  /// loop's seconds and its backlog's past this drain's end.
  void append(Phase&& next) {
    for (JobRecord& rec : next.jobs) {
      rec.shift(seconds);
      wall_s = std::max(wall_s, rec.done());
      jobs.push_back(std::move(rec));
    }
    for (JobRecord& rec : next.backlog) {
      rec.shift(backlog_s);
      backlog.push_back(std::move(rec));
    }
    seconds += next.seconds;
    backlog_s += next.backlog_s;
    queue_depth_high_water =
        std::max(queue_depth_high_water, next.queue_depth_high_water);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Percentile of the tail metrics, fixed per workload so that a faster
  /// commit, which completes more jobs, reads the same percentile.
  virtual double tail_percentile() const = 0;
  /// The end-to-end timings are read per window: the measured loop is cut
  /// into windows() stretches by due time, and the figure is this
  /// percentile of the per-window figures, counted from the better end.
  virtual int windows() const { return 10; }
  virtual double window_percentile() const { return 25.0; }
  /// Sojourn limit of slo_met_ratio: on a 4-vCPU virtual machine in a
  /// quiet stretch, about 2x the closed loops' tail (p75, p90) and 2.5x
  /// campus_open's p99, so the ratio drops when the tail doubles. A
  /// tighter limit would gate on the host's noise (see README.md).
  virtual double slo_s() const = 0;
  virtual std::vector<svc::TenantConfig> tenants() const = 0;
  virtual svc::ServerOptions server_options() const = 0;
  virtual int job_threads() const { return 1; }

  /// Generate inputs and reference outputs from the seed (untimed).
  virtual void prepare(std::uint64_t seed) = 0;
  /// One measured phase. `sample_rss` starts the RssSampler thread, which
  /// only the untraced half of a --trace 1 run reports (peak_rss_mb).
  virtual Phase run(double seconds, bool traced, bool sample_rss,
                    std::uint64_t seed) = 0;
  /// Measure throughput at full load into `phase` when the main loop does
  /// not run at full load. Closed loops do; they keep this no-op.
  virtual void add_capacity(Phase&, std::uint64_t) {}
  /// Share of an untraced run's seconds the main loop takes; the rest is
  /// left to add_capacity.
  virtual double loop_share() const { return 1.0; }
  /// Blocks an untraced run is measured in, each a stretch of the main
  /// loop followed by add_capacity, so that both sample the whole run.
  virtual int blocks() const { return 1; }

  /// Server construction plus rt::warm_up, as one cold process pays it.
  double setup_once() const {
    const auto start = Clock::now();
    svc::Server server(tenants(), server_options());
    rt::warm_up(rt::ParallelConfig::host(job_threads()));
    return since(start);
  }
};

/// Open-loop interactive course traffic on a 2-lane server: Poisson
/// arrivals from four weighted tenants, mostly small jobs. The jobs are
/// 20x the ubench_service sizes (but for the cluster jobs) so that a
/// job's sojourn is mostly its work, not the wait for a lane's virtual
/// CPU to wake, whose cost follows the host's load (see README.md).
class CampusOpen final : public Workload {
 public:
  const char* name() const override { return "campus_open"; }
  double tail_percentile() const override { return 99.0; }
  // Windows of about 0.55 s and 670 jobs at 45 s. Host noise comes in
  // bursts that slow every job while they last; the sixth-best of 60
  // windows finds the quiet part of a run that bursts cover only in part.
  int windows() const override { return 60; }
  double window_percentile() const override { return 10.0; }
  double slo_s() const override { return 5e-3; }
  std::vector<svc::TenantConfig> tenants() const override {
    return {{"physics", 8.0}, {"chem", 4.0}, {"bio", 2.0}, {"cs", 1.0}};
  }
  svc::ServerOptions server_options() const override {
    svc::ServerOptions options;
    options.lanes = 2;
    options.max_queue_depth = 1 << 16;
    options.admission = svc::AdmissionPolicy::Reject;
    return options;
  }

  void prepare(std::uint64_t seed) override {
    util::Rng rng(seed ^ 0xC0FFEEULL);
    for (int i = 0; i < kPool; ++i) {
      wordcounts_.push_back(make_small_corpus(rng, 80, 240));
      clusters_.push_back(make_small_corpus(rng, 2, 6));
      sweeps_.push_back(make_sweep(rng, 160, 480));
    }
  }

  Phase run(double seconds, bool traced, bool sample_rss,
            std::uint64_t seed) override {
    Phase phase;
    phase.traced = traced;
    phase.seconds = seconds;
    util::Rng rng(seed);
    // The arrival schedule is drawn up front: exponential gaps at kRateHz,
    // independent of completions.
    double due = 0.0;
    for (;;) {
      due += -std::log(1.0 - rng.next_double()) / kRateHz;
      if (due >= seconds) {
        break;
      }
      JobRecord& rec = phase.jobs.emplace_back();
      rec.due = due;
      draw_job(rng, rec);
    }
    const std::vector<svc::TenantConfig> tenant_list = tenants();
    svc::JobOptions job_options;
    job_options.record_trace = traced;
    svc::Server server(tenant_list, server_options());
    rt::warm_up(rt::ParallelConfig::host(job_threads()));

    const auto epoch = Clock::now() + std::chrono::milliseconds(2);
    std::vector<svc::Job> jobs;
    jobs.reserve(phase.jobs.size());
    for (JobRecord& rec : phase.jobs) {
      jobs.push_back(make_job(rec, epoch));
    }
    std::vector<svc::JobTicket> tickets;
    tickets.reserve(phase.jobs.size());
    const ProcessCounters before = ProcessCounters::read();
    {
      std::unique_ptr<RssSampler> rss;
      if (sample_rss) {
        rss = std::make_unique<RssSampler>();
      }
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobRecord& rec = phase.jobs[i];
        // Spin rather than sleep: a sleeping generator wakes late by an
        // amount the host decides, and every job is timed from its due
        // time.
        const auto due_at =
            epoch + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rec.due));
        while (Clock::now() < due_at) {
        }
        rec.call = since(epoch);
        tickets.push_back(server.submit(
            tenant_list[static_cast<std::size_t>(rec.tenant)].name,
            std::move(jobs[i]), job_options));
        rec.ret = since(epoch);
      }
      server.drain();
      if (rss) {
        phase.peak_rss_mb = rss->peak_mb(seconds);
      }
    }
    phase.counters = ProcessCounters::counted_since(before);
    settle(tickets, phase.jobs);
    phase.wall_s = 0.0;
    for (const JobRecord& rec : phase.jobs) {
      phase.wall_s = std::max(phase.wall_s, rec.done());
    }
    phase.queue_depth_high_water = server.stats().queue_depth_high_water;
    return phase;
  }

  double loop_share() const override { return 0.75; }
  int blocks() const override { return 5; }

  /// Capacity: kBacklogJobs of the same mix admitted while gate jobs hold
  /// both lanes, then drained at full speed. An open loop below
  /// saturation completes what arrives, so its throughput is the arrival
  /// rate; the drain rate is what the server can do.
  void add_capacity(Phase& phase, std::uint64_t seed) override {
    util::Rng rng(seed);
    for (int i = 0; i < kBacklogJobs; ++i) {
      draw_job(rng, phase.backlog.emplace_back());
    }
    const std::vector<svc::TenantConfig> tenant_list = tenants();
    svc::Server server(tenant_list, server_options());
    std::atomic<bool> open{false};
    std::vector<svc::JobTicket> gates;
    for (int lane = 0; lane < server_options().lanes; ++lane) {
      svc::Job gate;
      gate.kind = "gate";
      gate.run = [&open](svc::JobContext&) {
        while (!open.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        return svc::JobOutcome{};
      };
      gates.push_back(server.submit(tenant_list.front().name, std::move(gate)));
    }
    for (const svc::JobTicket& gate : gates) {
      while (gate.status() == svc::JobStatus::Queued) {
        std::this_thread::yield();
      }
    }
    const auto epoch = Clock::now();
    std::vector<svc::JobTicket> tickets;
    tickets.reserve(phase.backlog.size());
    for (JobRecord& rec : phase.backlog) {
      rec.due = rec.call = since(epoch);
      tickets.push_back(server.submit(
          tenant_list[static_cast<std::size_t>(rec.tenant)].name,
          make_job(rec, epoch)));
      rec.ret = since(epoch);
    }
    const auto release = Clock::now();
    open.store(true, std::memory_order_release);
    server.drain();
    phase.backlog_s = since(release);
    settle(tickets, phase.backlog);
    const double released =
        std::chrono::duration<double>(release - epoch).count();
    for (JobRecord& rec : phase.backlog) {
      rec.shift(-released);
    }
  }

 private:
  static constexpr int kPool = 64;
  static constexpr double kRateHz = 1200.0;
  static constexpr int kClusterRanks = 3;
  static constexpr int kBacklogJobs = 12000;  // per block

  /// One job of the ubench_service mix, at 20x its sizes, from one of the
  /// four tenants.
  void draw_job(util::Rng& rng, JobRecord& rec) const {
    rec.tenant = static_cast<int>(rng.next_below(4));
    const double pick = rng.next_double();
    rec.input = static_cast<int>(rng.next_below(kPool));
    const auto input = static_cast<std::size_t>(rec.input);
    if (pick < 0.70) {
      rec.kind = Kind::Patternlet;
      rec.iterations = rng.uniform_int(10240, 81920);
    } else if (pick < 0.85) {
      rec.kind = Kind::MapReduce;
      rec.input_bytes = wordcounts_[input].bytes;
    } else if (pick < 0.95) {
      rec.kind = Kind::DrugDesign;
      rec.input_bytes = sweeps_[input].bytes;
    } else {
      rec.kind = Kind::Cluster;
      rec.input_bytes = clusters_[input].bytes;
    }
  }

  Corpus make_small_corpus(util::Rng& rng, int min_docs, int max_docs) const {
    const auto docs = rng.uniform_int(min_docs, max_docs);
    return make_word_input(rng, vocabulary_,
                           static_cast<std::size_t>(docs) * 90, 14);
  }

  svc::Job make_job(JobRecord& rec, Clock::time_point epoch) const {
    const auto input = static_cast<std::size_t>(rec.input);
    switch (rec.kind) {
      case Kind::Patternlet:
        return patternlet_job(rec, epoch);
      case Kind::MapReduce:
        return mapreduce_job(rec, wordcounts_[input], 0,
                             wordcounts_[input].reference, epoch);
      case Kind::DrugDesign:
        return drug_job(rec, sweeps_[input], epoch);
      case Kind::Cluster:
        return cluster_job(rec, clusters_[input], kClusterRanks, 0.0, epoch);
    }
    throw std::logic_error("campus_open: unknown job kind");
  }

  static void settle(const std::vector<svc::JobTicket>& tickets,
                     std::deque<JobRecord>& records) {
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const svc::JobResult result = tickets[i].wait();
      JobRecord& rec = records[i];
      rec.status = result.status;
      rec.queued_s = result.queued_s;
      rec.service_s = result.service_s;
    }
  }

  Vocabulary vocabulary_{300};
  std::vector<Corpus> wordcounts_;
  std::vector<Corpus> clusters_;
  std::vector<Sweep> sweeps_;
};

/// One tenant submitting its next job when the last one is Done, to a
/// 1-lane server, cycling through a fixed pool of distinct inputs.
class ClosedLoop : public Workload {
 public:
  std::vector<svc::TenantConfig> tenants() const override {
    return {{"lab", 1.0}};
  }
  svc::ServerOptions server_options() const override {
    svc::ServerOptions options;
    options.lanes = 1;
    options.max_queue_depth = 4;
    options.admission = svc::AdmissionPolicy::Block;
    return options;
  }

  Phase run(double seconds, bool traced, bool sample_rss,
            std::uint64_t) override {
    Phase phase;
    phase.traced = traced;
    phase.seconds = seconds;
    svc::JobOptions job_options;
    job_options.record_trace = traced;
    job_options.threads = job_threads();
    svc::Server server(tenants(), server_options());
    rt::warm_up(rt::ParallelConfig::host(job_threads()));
    const int pool = pool_size();
    const ProcessCounters before = ProcessCounters::read();
    const auto epoch = Clock::now();
    {
      std::unique_ptr<RssSampler> rss;
      if (sample_rss) {
        rss = std::make_unique<RssSampler>();
      }
      // Untraced: as many jobs as fit. Traced: whole passes over the
      // pool, so the counters read per pass repeat exactly.
      double previous_done = -1.0;
      for (std::size_t k = 0;; ++k) {
        const bool pass_done = k % static_cast<std::size_t>(pool) == 0;
        if (k > 0 && since(epoch) >= seconds && (!traced || pass_done)) {
          phase.passes =
              std::max(1, static_cast<int>(k / static_cast<std::size_t>(pool)));
          break;
        }
        JobRecord& rec = phase.jobs.emplace_back();
        rec.input = static_cast<int>(k % static_cast<std::size_t>(pool));
        svc::Job job = make_job(rec, epoch);
        rec.call = since(epoch);
        // Closed loop: the job is due when the previous one is Done.
        rec.due = previous_done < 0.0 ? rec.call : previous_done;
        const svc::JobTicket ticket =
            server.submit("lab", std::move(job), job_options);
        rec.ret = since(epoch);
        const svc::JobResult result = ticket.wait();
        rec.status = result.status;
        rec.queued_s = result.queued_s;
        rec.service_s = result.service_s;
        previous_done = rec.done();
      }
      phase.wall_s = previous_done;
      if (rss) {
        phase.peak_rss_mb = rss->peak_mb(seconds);
      }
    }
    phase.counters = ProcessCounters::counted_since(before);
    phase.queue_depth_high_water = server.stats().queue_depth_high_water;
    return phase;
  }

 protected:
  virtual int pool_size() const = 0;
  virtual svc::Job make_job(JobRecord& rec, Clock::time_point epoch) = 0;
};

/// Budgeted MapReduce word count at full width: nearly all the work is
/// mapreduce map and reduce plus oocore spill and merge.
class WordcountSpill final : public ClosedLoop {
 public:
  const char* name() const override { return "wordcount_spill"; }
  double tail_percentile() const override { return 75.0; }
  double slo_s() const override { return 0.8; }
  int job_threads() const override { return rt::hardware_threads(); }

  void prepare(std::uint64_t seed) override {
    util::Rng rng(seed ^ 0x5B111ULL);
    for (int i = 0; i < kPool; ++i) {
      Corpus corpus = make_word_input(rng, vocabulary_, kCorpusBytes, 200);
      // The unbudgeted run is the reference the spilled run must match
      // byte for byte; it must itself match mapreduce::word_count.
      mapreduce::Job<int, std::string, std::string, long> unbudgeted;
      mapreduce::defs::WordCountDef{}.configure(unbudgeted);
      unbudgeted.threads(job_threads());
      WordCounts in_memory = unbudgeted.run(corpus.records);
      const std::string mismatch =
          campusbench::first_mismatch(corpus.reference, in_memory);
      if (!mismatch.empty()) {
        throw std::runtime_error(
            "wordcount_spill: unbudgeted run differs from "
            "mapreduce::word_count at " + mismatch);
      }
      unbudgeted_.push_back(std::move(in_memory));
      corpus.documents = {};  // the jobs read the indexed records only
      corpora_.push_back(std::move(corpus));
    }
  }

 private:
  // Each job spills about 400 runs whatever the corpus size (the budget
  // is a fixed share of the input), so a larger corpus keeps the run
  // count and lowers the share of job time spent creating run files,
  // whose cost on a shared virtual disk drifts 2-4x within minutes.
  static constexpr int kPool = 2;
  static constexpr std::size_t kCorpusBytes = 14'400'000;

  int pool_size() const override { return kPool; }
  svc::Job make_job(JobRecord& rec, Clock::time_point epoch) override {
    const auto input = static_cast<std::size_t>(rec.input);
    const Corpus& corpus = corpora_[input];
    rec.kind = Kind::MapReduce;
    rec.input_bytes = corpus.bytes;
    return mapreduce_job(rec, corpus, corpus.bytes / 4, unbudgeted_[input],
                         epoch);
  }

  Vocabulary vocabulary_{20000};
  std::vector<Corpus> corpora_;
  std::vector<WordCounts> unbudgeted_;
};

/// Distributed word count over 9 simulated ranks on a wire that drops 5%
/// of messages, with the cluster's reliability layer on: nearly all the
/// work is in cluster, mp and sim.
///
/// The simulator runs one OS thread per rank and lets one run at a time,
/// so each of a job's few hundred rank hand-offs wakes a thread that may
/// sit on an idle CPU, and on a shared virtual machine the wake-up's cost
/// varies with the host. Each job counts 2.4 MB, so the cluster's own
/// work, not the wake-ups, sets the job time: the hand-offs cost about
/// 35 ms of a 130-260 ms job on a 4-vCPU virtual machine.
/// Even so the job time follows the host's load between runs by more
/// than the benchmark's bounds, so BENCHMARK.json does not gate this
/// workload (see README.md).
class LossyCluster final : public ClosedLoop {
 public:
  const char* name() const override { return "lossy_cluster"; }
  double tail_percentile() const override { return 90.0; }
  double slo_s() const override { return 0.35; }

  void prepare(std::uint64_t seed) override {
    util::Rng rng(seed ^ 0x1055ULL);
    for (int i = 0; i < kPool; ++i) {
      corpora_.push_back(
          make_word_input(rng, vocabulary_, kCorpusBytes, kWordsPerDoc));
    }
  }

 private:
  static constexpr int kPool = 8;
  static constexpr int kRanks = 9;
  static constexpr double kDrop = 0.05;
  static constexpr std::size_t kCorpusBytes = 2'400'000;
  static constexpr int kWordsPerDoc = 500;

  int pool_size() const override { return kPool; }
  svc::Job make_job(JobRecord& rec, Clock::time_point epoch) override {
    const Corpus& corpus = corpora_[static_cast<std::size_t>(rec.input)];
    rec.kind = Kind::Cluster;
    rec.input_bytes = corpus.bytes;
    return cluster_job(rec, corpus, kRanks, kDrop, epoch);
  }

  Vocabulary vocabulary_{2000};
  std::vector<Corpus> corpora_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "campus_open") {
    return std::make_unique<CampusOpen>();
  }
  if (name == "wordcount_spill") {
    return std::make_unique<WordcountSpill>();
  }
  if (name == "lossy_cluster") {
    return std::make_unique<LossyCluster>();
  }
  return nullptr;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
    std::printf("metric %-34s %.9g %s\n", name.c_str(), value, unit.c_str());
  }

  std::string json(bool correct, std::int64_t attempted,
                   std::int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

template <class Pick>
std::vector<double> collect(const Phase& phase, Pick&& pick) {
  std::vector<double> values;
  for (const JobRecord& rec : phase.jobs) {
    if (const auto value = pick(rec)) {
      values.push_back(*value);
    }
  }
  return values;
}

/// Median of `pick` over the phase's jobs; 0 when no job has a value.
template <class Pick>
double median_of(const Phase& phase, Pick&& pick) {
  return campusbench::median(collect(phase, std::forward<Pick>(pick))).value;
}

/// Jobs not Done or with a wrong output, printing the first few.
std::int64_t failures(const Workload& workload,
                      const std::deque<JobRecord>& jobs) {
  std::int64_t failed = 0;
  for (const JobRecord& rec : jobs) {
    if (!rec.good() && failed++ < 5) {
      std::printf("FAILED %s job (%s, input %d): status=%s %s\n",
                  workload.name(), kind_name(rec.kind), rec.input,
                  svc::to_string(rec.status).c_str(), rec.mismatch.c_str());
    }
  }
  return failed;
}

std::optional<double> sojourn_of(const JobRecord& rec) {
  return rec.sojourn();
}

/// The end-to-end metrics of an untraced phase. They are read per window
/// (see Workload::windows) and reported from the better end of the
/// per-window figures; the whole run's share of jobs within the sojourn
/// limit is printed beside them.
void end_to_end(const Workload& workload, const Phase& phase,
                const std::vector<double>& setup, Report& report) {
  const std::vector<double> sojourn = collect(phase, sojourn_of);
  const std::vector<double> late = collect(
      phase, [](const JobRecord& rec) -> std::optional<double> {
        return rec.call - rec.due;
      });
  const double p = workload.tail_percentile();
  std::printf("sojourn: %s; %s; %s\n",
              campusbench::describe(campusbench::median(sojourn), "s").c_str(),
              campusbench::describe(campusbench::percentile(sojourn, p), "s")
                  .c_str(),
              campusbench::describe(campusbench::highest_supported(sojourn),
                                    "s").c_str());
  std::printf("send lateness: %s; %s\n",
              campusbench::describe(campusbench::percentile(late, p), "s")
                  .c_str(),
              campusbench::describe(campusbench::highest_supported(late),
                                    "s").c_str());

  std::vector<std::pair<double, double>> timed_sojourn;
  std::vector<std::pair<double, double>> timed_rate;  // input MB/s per job
  std::vector<std::pair<double, double>> timed_met;   // 1 if within limit
  std::int64_t met = 0;
  for (const JobRecord& rec : phase.jobs) {
    timed_sojourn.emplace_back(rec.due, rec.sojourn());
    const bool in_time = rec.good() && rec.sojourn() <= workload.slo_s();
    timed_met.emplace_back(rec.due, in_time ? 1.0 : 0.0);
    met += in_time ? 1 : 0;
    if (rec.good()) {
      timed_rate.emplace_back(
          rec.due, static_cast<double>(rec.input_bytes) / 1e6 / rec.sojourn());
    }
  }
  const auto window_median = [](const std::vector<double>& values) {
    return campusbench::median(values).value;
  };
  const double better = workload.window_percentile();
  const auto window_mean = [](const std::vector<double>& values) {
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  };
  const double slo_met = campusbench::percentile(
      campusbench::per_window(timed_met, phase.seconds, workload.windows(),
                              window_mean),
      100.0 - better).value;
  std::printf("slo met over the whole run: %lld of %zu jobs = %.6g\n",
              static_cast<long long>(met), phase.jobs.size(),
              static_cast<double>(met) /
                  static_cast<double>(
                      std::max<std::size_t>(phase.jobs.size(), 1)));
  const std::vector<double> window_p50 = campusbench::per_window(
      timed_sojourn, phase.seconds, workload.windows(), window_median);
  const double sojourn_p50 =
      campusbench::percentile(window_p50, better).value;
  std::printf("sojourn median per window: %zu windows, min %.6g s, "
              "p%g %.6g s, max %.6g s\n",
              window_p50.size(),
              *std::min_element(window_p50.begin(), window_p50.end()),
              better, sojourn_p50,
              *std::max_element(window_p50.begin(), window_p50.end()));

  // Throughput at full load. The closed loops run at full load, one job
  // at a time: each job's input over its sojourn, median per window.
  // campus_open runs below saturation, so its capacity backlog's drain is
  // timed instead: the input of the jobs finishing in each of
  // kDrainSlices equal slices of the drain, over the slice's length, and
  // the upper quartile of those rates, which leaves out the drain's ramp
  // and tail and a short stall of the host.
  double input_mb_per_s = 0.0;
  if (!phase.backlog.empty()) {
    std::vector<std::pair<double, double>> finished;  // (s into drain, MB)
    for (const JobRecord& rec : phase.backlog) {
      if (rec.good()) {
        finished.emplace_back(rec.done(),
                              static_cast<double>(rec.input_bytes) / 1e6);
      }
    }
    const double slice_s = phase.backlog_s / kDrainSlices;
    const std::vector<double> slice_rate = campusbench::per_window(
        finished, phase.backlog_s, kDrainSlices,
        [slice_s](const std::vector<double>& mb) {
          return std::accumulate(mb.begin(), mb.end(), 0.0) / slice_s;
        });
    input_mb_per_s = campusbench::percentile(slice_rate, 75.0).value;
    std::printf(
        "capacity: %zu backlog jobs drained in %.6g s = %.6g jobs/s\n",
        phase.backlog.size(), phase.backlog_s,
        static_cast<double>(phase.backlog.size()) / phase.backlog_s);
  } else {
    const std::vector<double> window_rate = campusbench::per_window(
        timed_rate, phase.seconds, workload.windows(), window_median);
    input_mb_per_s =
        campusbench::percentile(window_rate, 100.0 - better).value;
  }

  const Quantile setup_median = campusbench::median(setup);
  std::printf(
      "setup: %zu cold probes, min %.6g s, median %.6g s, max %.6g s\n",
      setup.size(), *std::min_element(setup.begin(), setup.end()),
      setup_median.value, *std::max_element(setup.begin(), setup.end()));
  report.add("setup_s", setup_median.value, "s");
  report.add("sojourn_p50_s", sojourn_p50, "s");
  report.add("slo_met_ratio", slo_met, "ratio");
  report.add("input_mb_per_s", input_mb_per_s, "MB/s");
}

/// Splits each job of a traced phase into layers and reports the
/// per-layer metrics.
void per_layer(const Workload& workload, const Phase& traced,
               const Phase& untraced, Report& report) {
  campusbench::LayerAccount account;
  std::vector<double> launch;
  double member_work = 0.0;
  double member_capacity = 0.0;
  std::uint64_t steals = 0;
  std::vector<double> spill_s, merge_s, map_s, reduce_s, unattributed_s;
  std::int64_t spilled_runs = 0, spilled_bytes = 0, spill_input = 0;
  std::uint64_t retransmits = 0, data_sent = 0, duplicates = 0, abandoned = 0;
  std::int64_t attempts = 0, tasks = 0, requeues = 0;
  std::uint64_t messages = 0, payload_bytes = 0;
  std::vector<double> virtual_s, host_per_virtual;
  std::map<std::pair<int, int>, JobCounts> first_counts;
  int nondeterministic = 0;

  const auto add_region = [&](const campusbench::RegionSplit& split,
                              LayerTimes& layers, Layer work_layer) {
    launch.insert(launch.end(), split.launch_s.begin(), split.launch_s.end());
    member_work += split.member_work_s;
    member_capacity += static_cast<double>(split.width) * split.wall_s;
    steals += split.steals;
    layers[static_cast<std::size_t>(work_layer)] += split.work_s;
    layers[static_cast<std::size_t>(Layer::OocoreSpill)] += split.spill_s;
    layers[static_cast<std::size_t>(Layer::OocoreMerge)] += split.merge_s;
    layers[static_cast<std::size_t>(Layer::Rt)] += split.runtime_s;
  };

  for (const JobRecord& rec : traced.jobs) {
    LayerTimes layers{};
    const auto at = [&](Layer layer) -> double& {
      return layers[static_cast<std::size_t>(layer)];
    };
    at(Layer::Client) = rec.call - rec.due;
    at(Layer::ServiceSubmit) = rec.ret - rec.call;
    at(Layer::ServiceDispatch) = rec.body0 - rec.ret;
    at(Layer::ServiceFinalize) = rec.done() - rec.body1;
    switch (rec.kind) {
      case Kind::Patternlet:
      case Kind::DrugDesign:
        if (rec.region) {
          add_region(*rec.region, layers,
                     rec.kind == Kind::Patternlet ? Layer::Patternlet
                                                  : Layer::Drugdesign);
          // The rt::parallel call outside the region's own clock.
          at(Layer::Rt) += rec.call_s - rec.region->wall_s;
        }
        break;
      case Kind::MapReduce: {
        double regions = 0.0;
        if (const auto& split = rec.region) {
          add_region(*split, layers, Layer::MapreduceMap);
          map_s.push_back(split->wall_s);
          spill_s.push_back(split->spill_s * split->width);
          regions += split->wall_s;
        }
        if (const auto& split = rec.reduce_region) {
          add_region(*split, layers, Layer::MapreduceReduce);
          reduce_s.push_back(split->wall_s);
          merge_s.push_back(split->merge_s * split->width);
          regions += split->wall_s;
        }
        at(Layer::Mapreduce) = rec.call_s - regions;
        unattributed_s.push_back(rec.call_s - regions);
        break;
      }
      case Kind::Cluster:
        at(Layer::Sim) = rec.call_s;
        if (rec.counts.completion_virtual_s > 0.0) {
          virtual_s.push_back(rec.counts.completion_virtual_s);
          host_per_virtual.push_back(rec.call_s /
                                     rec.counts.completion_virtual_s);
        }
        break;
    }
    account.add_job(rec.sojourn(), layers);

    // Counters: campus_open sums its fixed job list; the closed loops sum
    // whole passes and report per pass.
    const JobCounts& c = rec.counts;
    spilled_runs += c.spilled_runs;
    spilled_bytes += c.spilled_bytes;
    if (c.spilled_runs > 0) {
      spill_input += rec.input_bytes;
    }
    retransmits += c.retransmits;
    data_sent += c.data_sent;
    duplicates += c.duplicates_dropped;
    abandoned += c.abandoned;
    attempts += c.attempts;
    tasks += c.tasks;
    requeues += c.requeues;
    messages += c.messages;
    payload_bytes += c.payload_bytes;
    const auto [it, fresh] = first_counts.emplace(
        std::make_pair(static_cast<int>(rec.kind), rec.input), c);
    if (!fresh && !it->second.same_as(c)) {
      ++nondeterministic;
    }
  }

  std::printf("%s", account.table(std::string("layer split of ") +
                                  workload.name() + " (traced, " +
                                  std::to_string(account.jobs()) + " jobs)")
                        .c_str());
  const double traced_p50 = median_of(traced, sojourn_of);
  const double untraced_p50 = median_of(untraced, sojourn_of);
  std::printf(
      "tracing overhead: sojourn p50 %.6g s traced - %.6g s untraced = "
      "%.6g s\n",
      traced_p50, untraced_p50, traced_p50 - untraced_p50);
  std::printf("counters repeat per input: %s (%d repeats differed)\n",
              nondeterministic == 0 ? "yes" : "no", nondeterministic);

  const double passes = static_cast<double>(traced.passes);
  const auto per_pass = [&](double total) { return total / passes; };
  // Medians over the phase's jobs of one kind: the whole body, or the
  // public call the body wraps.
  const auto body_of = [&](Kind kind) {
    return median_of(traced, [kind](const JobRecord& rec)
                                 -> std::optional<double> {
      if (rec.kind != kind) {
        return std::nullopt;
      }
      return rec.body_s();
    });
  };
  const auto call_of = [&](Kind kind) {
    return median_of(traced, [kind](const JobRecord& rec)
                                 -> std::optional<double> {
      if (rec.kind != kind) {
        return std::nullopt;
      }
      return rec.call_s;
    });
  };
  const double p = workload.tail_percentile();

  // Tails move with the machine's scheduling noise more than with the
  // program, so they are layer metrics here, read from the untraced half.
  const std::vector<double> sojourn = collect(untraced, sojourn_of);
  report.add("service.sojourn_tail_s",
             campusbench::percentile(sojourn, p).value, "s");
  report.add("client.send_late_tail_s",
             campusbench::percentile(
                 collect(untraced,
                         [](const JobRecord& rec) -> std::optional<double> {
                           return rec.call - rec.due;
                         }),
                 p)
                 .value,
             "s");
  // Peak memory follows the allocator's arena and mmap-threshold choices,
  // which shift with thread timing by up to 40% between runs of the
  // spilling workload, so it is a layer metric too.
  report.add("process.peak_rss_mb", untraced.peak_rss_mb, "MB");
  report.add("service.submit_p50_s",
             median_of(traced,
                       [](const JobRecord& rec) -> std::optional<double> {
                         return rec.ret - rec.call;
                       }),
             "s");
  const std::vector<double> queued = collect(
      traced, [](const JobRecord& rec) -> std::optional<double> {
        return rec.queued_s;
      });
  report.add("service.queue_wait_p50_s", campusbench::median(queued).value,
             "s");
  report.add("service.queue_wait_tail_s",
             campusbench::percentile(queued, p).value, "s");
  report.add("service.dispatch_p50_s",
             median_of(traced,
                       [](const JobRecord& rec) -> std::optional<double> {
                         return rec.body0 - rec.ret;
                       }),
             "s");
  report.add("service.overhead_p50_s",
             median_of(traced,
                       [](const JobRecord& rec) -> std::optional<double> {
                         return rec.done() - rec.call - rec.body_s();
                       }),
             "s");
  report.add("service.queue_depth_high_water",
             traced.queue_depth_high_water, "count");
  report.add("rt.region_launch_p50_s", campusbench::median(launch).value,
             "s");
  report.add("rt.patternlet_body_p50_s", body_of(Kind::Patternlet), "s");
  report.add("rt.busy_share",
             member_capacity > 0.0 ? member_work / member_capacity : 0.0,
             "ratio");
  report.add("rt.steals", per_pass(static_cast<double>(steals)), "count");
  report.add("rt.spawned_regions",
             per_pass(static_cast<double>(traced.counters.spawned_regions)), "count");
  report.add("drugdesign.body_p50_s", body_of(Kind::DrugDesign), "s");
  report.add("mapreduce.run_s", call_of(Kind::MapReduce), "s");
  report.add("mapreduce.map_s", campusbench::median(map_s).value, "s");
  report.add("mapreduce.reduce_s", campusbench::median(reduce_s).value, "s");
  report.add("mapreduce.unattributed_s",
             campusbench::median(unattributed_s).value, "s");
  report.add("mapreduce.body_p50_s", body_of(Kind::MapReduce), "s");
  report.add("oocore.spilled_runs",
             per_pass(static_cast<double>(spilled_runs)), "count");
  report.add("oocore.spilled_bytes",
             per_pass(static_cast<double>(spilled_bytes)), "bytes");
  report.add("oocore.spill_amplification",
             spill_input > 0 ? static_cast<double>(spilled_bytes) /
                                   static_cast<double>(spill_input)
                             : 0.0,
             "ratio");
  report.add("oocore.spill_s", campusbench::median(spill_s).value, "s");
  report.add("oocore.merge_s", campusbench::median(merge_s).value, "s");
  report.add("cluster.completion_virtual_s",
             campusbench::median(virtual_s).value, "s");
  report.add("cluster.retransmits", per_pass(static_cast<double>(retransmits)),
             "count");
  report.add("cluster.retransmit_ratio",
             data_sent > 0 ? static_cast<double>(retransmits) /
                                 static_cast<double>(data_sent)
                           : 0.0,
             "ratio");
  report.add("cluster.duplicates_dropped",
             per_pass(static_cast<double>(duplicates)), "count");
  report.add("cluster.abandoned", per_pass(static_cast<double>(abandoned)),
             "count");
  report.add("cluster.attempts", per_pass(static_cast<double>(attempts)),
             "count");
  report.add("cluster.requeues", per_pass(static_cast<double>(requeues)),
             "count");
  report.add("cluster.task_efficiency",
             attempts > 0 ? static_cast<double>(tasks) /
                                static_cast<double>(attempts)
                          : 0.0,
             "ratio");
  report.add("cluster.body_p50_s", body_of(Kind::Cluster), "s");
  report.add("mp.messages", per_pass(static_cast<double>(messages)), "count");
  report.add("mp.payload_bytes", per_pass(static_cast<double>(payload_bytes)),
             "bytes");
  report.add("mp.payload_copies",
             per_pass(static_cast<double>(traced.counters.copies.copies)), "count");
  report.add("mp.copied_bytes",
             per_pass(static_cast<double>(traced.counters.copies.bytes)), "bytes");
  const std::uint64_t acquires = traced.counters.pool.hits + traced.counters.pool.misses;
  report.add("mp.pool_hit_ratio",
             acquires > 0 ? static_cast<double>(traced.counters.pool.hits) /
                                static_cast<double>(acquires)
                          : 0.0,
             "ratio");
  report.add("sim.run_s", call_of(Kind::Cluster), "s");
  report.add("sim.host_per_virtual",
             campusbench::median(host_per_virtual).value, "ratio");
  report.add("trace.overhead_p50_s", traced_p50 - untraced_p50, "s");
  report.add("trace.unattributed_share",
             account.share(account.unattributed_s()), "ratio");
}

// --- Command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool setup_probe = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "campusbench: %s\nusage: campusbench --workload "
               "<campus_open|wordcount_spill|lossy_cluster> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--source-digest <hex>]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-probe") {
      options.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value);
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.setup_probe) {
    return options;
  }
  if (options.seconds < 1 || options.seconds > 600) {
    usage("--seconds must be in [1, 600]");
  }
  if (options.trace != 0 && options.trace != 1) {
    usage("--trace must be 0 or 1");
  }
  return options;
}

/// Times kSetupProbes cold set-ups, each in a fresh copy of this program,
/// so every probe pays thread-pool and lane start-up as a new server does.
std::vector<double> probe_setup(const std::string& workload) {
  char exe[4096] = {};
  const ssize_t length = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (length <= 0) {
    throw std::runtime_error("cannot locate /proc/self/exe");
  }
  const std::string command = std::string("'") + exe +
                              "' --setup-probe --workload " + workload;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupProbes; ++i) {
    FILE* pipe = ::popen(command.c_str(), "r");
    if (pipe == nullptr) {
      throw std::runtime_error("cannot start a set-up probe");
    }
    double value = -1.0;
    const int read = std::fscanf(pipe, "%lf", &value);
    const int status = ::pclose(pipe);
    if (read != 1 || status != 0 || value <= 0.0) {
      throw std::runtime_error("set-up probe failed");
    }
    seconds.push_back(value);
  }
  return seconds;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (options.setup_probe) {
    std::printf("%.9g\n", workload->setup_once());
    return 0;
  }
  std::printf(
      "campusbench: workload=%s seed=%llu seconds=%d trace=%d\n"
      "provenance: hardware_threads=%d compiler=\"%s\" build_type=%s "
      "commit=%s source_digest=%s held_out_seed=%llu\n",
      workload->name(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace, rt::hardware_threads(),
      CAMPUSBENCH_COMPILER, CAMPUSBENCH_BUILD_TYPE, options.commit.c_str(),
      options.source_digest.c_str(),
      static_cast<unsigned long long>(kHeldOutSeed));

  std::vector<double> setup;
  if (options.trace == 0) {
    setup = probe_setup(options.workload);
  }
  const auto prepare_start = Clock::now();
  workload->prepare(options.seed);
  std::printf("inputs and references: %.3f s (not measured)\n",
              since(prepare_start));

  // Unmeasured warm-up: the first second of a fresh process pays for
  // thread stacks, allocator arenas and page faults that a running server
  // has long paid.
  const Phase warm_up =
      workload->run(kWarmupSeconds, false, false, options.seed ^ 0x3A3AULL);
  // Hand the set-up's freed heap (the reference runs) back to the system,
  // so peak_rss_mb reads what the measured jobs hold.
  ::malloc_trim(0);

  // Trace 0 measures untraced for the whole run, in the workload's blocks.
  // Trace 1 splits it: an untraced half is the baseline of the tracing
  // overhead, the traced half gives the per-layer metrics.
  const double seconds = options.seconds;
  std::vector<Phase> phases;
  if (options.trace == 0) {
    const int blocks = workload->blocks();
    const double block_s = seconds * workload->loop_share() / blocks;
    for (int b = 0; b < blocks; ++b) {
      const std::uint64_t block_seed =
          options.seed + 0x9E37ULL * static_cast<std::uint64_t>(b);
      Phase block = workload->run(block_s, false, false, block_seed);
      workload->add_capacity(block, block_seed + 2);
      if (phases.empty()) {
        phases.push_back(std::move(block));
      } else {
        phases.front().append(std::move(block));
      }
    }
  } else {
    phases.push_back(workload->run(seconds / 2, false, true, options.seed));
    phases.push_back(
        workload->run(seconds / 2, true, false, options.seed + 1));
  }

  std::int64_t attempted = static_cast<std::int64_t>(warm_up.jobs.size());
  std::int64_t failed = failures(*workload, warm_up.jobs);
  for (const Phase& phase : phases) {
    const std::int64_t jobs =
        static_cast<std::int64_t>(phase.jobs.size() + phase.backlog.size());
    const std::int64_t bad = failures(*workload, phase.jobs) +
                             failures(*workload, phase.backlog);
    attempted += jobs;
    failed += bad;
    std::printf(
        "phase %s: %zu jobs in %.3f s, %zu backlog jobs, %lld failed or "
        "wrong (failed_ratio %.6g)\n",
        phase.traced ? "traced" : "untraced", phase.jobs.size(),
        phase.wall_s, phase.backlog.size(), static_cast<long long>(bad),
        static_cast<double>(bad) /
            static_cast<double>(std::max<std::int64_t>(jobs, 1)));
  }

  Report report;
  if (options.trace == 0) {
    end_to_end(*workload, phases.front(), setup, report);
  } else {
    per_layer(*workload, phases.back(), phases.front(), report);
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s\n", report.json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "campusbench: %s\n", error.what());
    return 1;
  }
}
