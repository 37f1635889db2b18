/**
 * @file
 * Cost models of the Spark-family baselines (paper §5.1): vanilla Spark,
 * SparkSHM (intermediate data in shared memory) and SparkRDMA (network
 * I/O over RDMA). Spark's JVM aggregation path cannot be rebuilt
 * natively; these models are calibrated against the paper's own
 * measurements (Figures 3, 10, 11) — see EXPERIMENTS.md for the
 * derivation of every constant.
 */
#ifndef ASK_BASELINES_SPARK_MODEL_H
#define ASK_BASELINES_SPARK_MODEL_H

#include <cstdint>
#include <string>

namespace ask::baselines {

/** Which Spark deployment is modeled. */
enum class SparkVariant : std::uint8_t
{
    kVanilla,  ///< stock Spark: shuffle via local disk
    kShm,      ///< intermediate data on shared memory (no disk I/O)
    kRdma,     ///< SparkRDMA: network I/O acceleration
};

/** One WordCount-style job (Figures 10 and 11). */
struct SparkJobSpec
{
    std::uint32_t machines = 3;
    std::uint32_t mappers_per_machine = 32;
    std::uint32_t reducers_per_machine = 32;
    std::uint64_t tuples_per_mapper = 150000000;
    std::uint64_t distinct_keys_per_mapper = 1u << 18;
    std::uint32_t cores_per_machine = 56;
    SparkVariant variant = SparkVariant::kVanilla;
};

/** Phase breakdown (the paper's TCT/JCT metrics). */
struct SparkJobResult
{
    double mapper_tct_s = 0.0;   ///< mean map-task completion time
    double reducer_tct_s = 0.0;  ///< mean reduce-task completion time
    double jct_s = 0.0;
};

/** Evaluate the Spark job model. */
SparkJobResult run_spark_job(const SparkJobSpec& spec);

/** Per-tuple mapper-side cost (generate + combine + shuffle write). */
double spark_mapper_ns_per_tuple(SparkVariant v);

/** Per-tuple reducer-side cost (shuffle read + final merge). */
double spark_reducer_ns_per_tuple(SparkVariant v);

}  // namespace ask::baselines

#endif  // ASK_BASELINES_SPARK_MODEL_H
