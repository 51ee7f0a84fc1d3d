#include "cluster/engine.hpp"

#include <iomanip>
#include <sstream>

#include "util/json.hpp"

namespace pblpar::cluster {

std::string ClusterProfile::event_log() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  for (const ClusterEvent& e : events) {
    os << "[" << std::setw(12) << e.t_s << "] ";
    if (e.worker >= 0) {
      os << "w" << e.worker;
    } else {
      os << "--";
    }
    os << " ";
    if (e.task >= 0) {
      os << "t" << e.task;
    } else {
      os << "--";
    }
    os << " ";
    if (e.claim > 0) {
      os << "c" << e.claim;
    } else {
      os << "--";
    }
    os << " " << e.kind << "\n";
  }
  return os.str();
}

std::string ClusterProfile::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "cluster run: " << stats.tasks << " task(s) on " << stats.workers
     << " worker(s), " << stats.attempts << " attempt(s) ("
     << stats.speculative_attempts << " speculative), " << stats.requeues
     << " requeue(s), " << stats.lost_results << " lost result(s), "
     << stats.dead_workers << " dead worker(s)";
  if (stats.resurrections > 0) {
    os << " (" << stats.resurrections << " came back)";
  }
  if (stats.cancelled_tasks > 0) {
    os << ", " << stats.cancelled_tasks
       << " task(s) cancelled at the job deadline";
  }
  if (stats.restored_tasks > 0) {
    os << ", " << stats.restored_tasks
       << " task(s) restored from a checkpoint";
  }
  if (stats.checkpoints > 0) {
    os << ", " << stats.checkpoints << " checkpoint(s) taken";
  }
  if (retry.retransmits > 0 || retry.abandoned > 0 ||
      retry.duplicates_dropped > 0) {
    os << ", reliability: " << retry.retransmits << " retransmit(s), "
       << retry.duplicates_dropped << " duplicate(s) dropped, "
       << retry.abandoned << " abandoned";
  }
  os << ", " << stats.heartbeats << " heartbeat(s); results complete at "
     << stats.completion_s * 1e3 << " ms, engine wound down at "
     << stats.makespan_s * 1e3 << " ms";
  if (!dead_workers.empty()) {
    os << "; dead:";
    for (const int w : dead_workers) {
      os << " w" << w;
    }
  }
  os << "\n";
  return os.str();
}

std::string ClusterProfile::to_json() const {
  util::Json json;
  json.begin_object().field("schema", "pblpar.cluster.v1");
  json.key("stats").object(
      "tasks", stats.tasks, "workers", stats.workers,
      "attempts", stats.attempts,
      "speculative_attempts", stats.speculative_attempts,
      "requeues", stats.requeues, "lost_results", stats.lost_results,
      "dead_workers", stats.dead_workers,
      "resurrections", stats.resurrections, "heartbeats", stats.heartbeats,
      "cancelled_tasks", stats.cancelled_tasks,
      "checkpoints", stats.checkpoints,
      "restored_tasks", stats.restored_tasks,
      "completion_s", stats.completion_s, "makespan_s", stats.makespan_s);
  json.key("retry").object(
      "data_sent", retry.data_sent,
      "fire_and_forget_sent", retry.fire_and_forget_sent,
      "retransmits", retry.retransmits, "abandoned", retry.abandoned,
      "acks_sent", retry.acks_sent, "acks_received", retry.acks_received,
      "duplicates_dropped", retry.duplicates_dropped,
      "out_of_order_stashed", retry.out_of_order_stashed);
  json.key("wire").begin_object();
  json.key("messages").array(wire_messages).key("bytes").array(wire_bytes);
  json.end_object().key("dead_workers").array(dead_workers);
  json.key("events").begin_array();
  for (const ClusterEvent& e : events) {
    json.object("t_s", e.t_s, "worker", e.worker, "task", e.task,
                "claim", e.claim, "kind", e.kind);
  }
  return json.end_array().end_object().str();
}

SimClusterRun run_sim_cluster(int nodes,
                              const std::vector<std::vector<std::byte>>& tasks,
                              const TaskFn& task_fn,
                              const ClusterOptions& options,
                              const FaultPlan* faults, mp::ClusterSpec spec) {
  util::require(nodes >= 1, "run_sim_cluster: need at least one node");
  // An armed transport-chaos plan in the fault plan is wired into the
  // simulated cluster spec, so the whole rank body (engine protocol plus
  // the collectives a driver runs after it) sees the same lossy wire.
  if (faults != nullptr && faults->transport.armed()) {
    util::require(!spec.chaos.armed(),
                  "run_sim_cluster: transport chaos given both in the "
                  "FaultPlan and the ClusterSpec — pick one");
    spec.chaos = faults->transport;
  }
  SimClusterRun run;
  try {
    run.report = mp::SimWorld::run(
        nodes,
        [&](mp::SimComm& comm) {
          ClusterRunResult result = run_cluster_tasks(
              comm, tasks, task_fn, options, faults,
              comm.rank() == 0 ? &run.profile : nullptr);
          if (result.is_master) {
            run.results = std::move(result.results);
            run.dead_workers = std::move(result.dead_workers);
            run.job_cancelled = result.job_cancelled;
            run.incomplete_tasks = std::move(result.incomplete_tasks);
          }
        },
        spec);
  } catch (const sim::DeadlockError& error) {
    // A correct engine run never deadlocks (the master polls with a
    // timed receive); surface whatever went wrong as a cluster failure
    // instead of a bare machine error.
    throw ClusterError(std::string("cluster run deadlocked: ") +
                       error.what());
  }
  return run;
}

}  // namespace pblpar::cluster
