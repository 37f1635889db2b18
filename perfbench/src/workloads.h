/**
 * @file
 * The benchmark's workloads: each is a cluster configuration plus the
 * task streams generated from a seed. The cluster sees only these
 * generated streams; the reference fold that checks every result is in
 * this file too and shares no code with the data path.
 */
#ifndef ASK_PERFBENCH_WORKLOADS_H
#define ASK_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ask/cluster.h"

namespace perfbench {

/** One aggregation task as the benchmark submits it. */
struct TaskInput
{
    ask::core::TaskId id = 0;
    ask::HostId receiver = ask::HostId{0};
    std::vector<ask::core::StreamSpec> streams;
    ask::core::TaskOptions options;
};

/**
 * A workload. Tasks are grouped by tenant: every tenant's first task is
 * submitted at set-up, and each later task when the tenant's previous
 * one reports (a closed loop of tenants.size() clients). A workload
 * whose tenants hold one task each is a single batch submitted at once.
 */
struct Workload
{
    std::string name;
    ask::core::ClusterConfig config;
    std::vector<std::vector<TaskInput>> tenants;
    ask::sim::ChaosPlan chaos;
    std::uint64_t tuples = 0;
    std::uint64_t tasks = 0;
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workload_names();

/**
 * Build workload `name` from `seed`. `scale` multiplies the input
 * volume (1.0 is the measured size; the self-check runs a tiny
 * fraction). Throws std::invalid_argument on an unknown name.
 */
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double scale);

/** Independent reference fold of one task's raw input streams under
 *  the task's reduction operator. */
ask::core::AggregateMap reference_fold(const TaskInput& task,
                                       ask::core::ReduceOp op);

}  // namespace perfbench

#endif  // ASK_PERFBENCH_WORKLOADS_H
