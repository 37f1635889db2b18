/**
 * Chaos-injection tests: scheduled fault episodes against a full ASK
 * deployment. Exactness must survive a mid-task switch reboot (register
 * wipe + region reinstall + fence + replay) and a persistently sick
 * data plane (graceful degradation to host-side aggregation); tasks
 * whose dependencies are truly gone must fail with a clear error
 * instead of hanging.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "sim/chaos.h"
#include "testing/differential.h"
#include "testing/scenario.h"

namespace ask::core {
namespace {

using units::kMicrosecond;
using units::kMillisecond;

KvStream
mixed_stream(Rng& rng, std::size_t n, std::size_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = rng.next_below(distinct);
        std::size_t len = 1 + id % 12;  // short/medium/long mix
        std::string key;
        std::uint64_t x = mix64(id + 1);
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + (x >> (5 * (j % 12))) % 26));
        s.push_back({key, static_cast<Value>(1 + id % 7)});
    }
    return s;
}

KvStream
short_stream(Rng& rng, std::size_t n, std::size_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        s.push_back({"k" + std::to_string(rng.next_below(distinct)),
                     static_cast<Value>(1 + rng.next_below(5))});
    }
    return s;
}

AggregateMap
truth_of(const std::vector<StreamSpec>& streams, AggOp op)
{
    AggregateMap t;
    for (const auto& s : streams)
        aggregate_into(t, s.stream, op);
    return t;
}

ClusterConfig
base_config()
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = 16;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

std::vector<StreamSpec>
two_streams(std::uint64_t seed, std::size_t n)
{
    Rng rng = seeded_rng("chaos_test", seed);
    return {{1, mixed_stream(rng, n, 60)}, {2, mixed_stream(rng, n, 60)}};
}

/** Dry-run the task on an identical fault-free cluster to learn when it
 *  would finish, so chaos can be aimed at the middle of the run. */
sim::SimTime
undisturbed_finish_time(const ClusterConfig& cc,
                        const std::vector<StreamSpec>& streams)
{
    AskCluster cluster(cc);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_TRUE(r.ok());
    return r.report.finish_time;
}

// ---------------------------------------------------------------------------
// Tentpole scenario 1: the switch crashes mid-task, losing every
// register and its task table. Recovery (reinstall + fence + replay)
// must keep the result exactly-once.
// ---------------------------------------------------------------------------

TEST(Chaos, SwitchRebootMidTaskStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 11;
    std::vector<StreamSpec> streams = two_streams(11, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_GE(cs.regions_reinstalled, 1u);
    EXPECT_GT(cs.channels_fenced, 0u);
    EXPECT_EQ(cs.tasks_reset, 1u);
    EXPECT_EQ(cs.streams_replayed, 2u);
}

TEST(Chaos, SwitchRebootUnderLossWithSwapsStaysExact)
{
    // Reboot on top of a lossy fabric with shadow-copy swaps enabled:
    // the crash can race retransmissions, in-flight swaps, and fetches.
    ClusterConfig cc = base_config();
    cc.ask.swap_threshold_packets = 32;
    cc.faults = net::FaultSpec::lossy(0.08, 0.04, 0.1);
    cc.seed = 23;
    std::vector<StreamSpec> streams = two_streams(23, 1000);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 300 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(Chaos, TwoRebootsBackToBackStayExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 31;
    std::vector<StreamSpec> streams = two_streams(31, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(finish / 3, 150 * kMicrosecond);
    plan.switch_reboot(finish, 150 * kMicrosecond);  // mid-recovery run
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 2u);
    EXPECT_GE(cluster.chaos_stats().streams_replayed, 2u);
}

// ---------------------------------------------------------------------------
// Tentpole scenario 2: the data plane silently eats aggregation traffic
// ("sick program"). The daemon must detect the dead path via its
// retransmission budget and degrade to host-side aggregation — slower,
// still exact.
// ---------------------------------------------------------------------------

TEST(Chaos, DataBlackholeDegradesToHostAggregation)
{
    ClusterConfig cc = base_config();
    cc.ask.max_data_tries = 6;  // detect the dead path quickly
    cc.seed = 41;
    Rng rng = seeded_rng("chaos_test", 41);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 300, 40)},
                                    {2, mixed_stream(rng, 300, 40)}};
    AggregateMap truth = truth_of(streams, AggOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // The data plane is sick from the very start, forever: task setup
    // (management plane) still works, but no DATA is ever aggregated.
    plan.data_blackhole(0, 3600UL * units::kSecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.data_blackholes, 1u);
    EXPECT_GE(cs.degraded_entries, 1u);  // at least one sender fell back
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).blackholed, 0u);
    // Everything after the fallback travels the long-key bypass.
    EXPECT_GT(cluster.total_host_stats().long_packets_sent, 0u);
    EXPECT_GT(cluster.total_host_stats().tuples_aggregated_locally, 0u);
}

TEST(Chaos, TransientBlackholeRecoversAndStaysExact)
{
    // A blackhole shorter than the retransmission budget: senders ride
    // it out with retransmissions and never degrade.
    ClusterConfig cc = base_config();
    cc.seed = 43;
    std::vector<StreamSpec> streams = two_streams(43, 600);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // Covers the data phase (senders start streaming at ~70us: mgmt
    // setup plus the task notification) but is far shorter than the
    // retransmission budget.
    plan.data_blackhole(0, 300 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).blackholed, 0u);
    EXPECT_EQ(cluster.chaos_stats().degraded_entries, 0u);
}

// ---------------------------------------------------------------------------
// Link episodes: blackouts and burst loss delay but never corrupt.
// ---------------------------------------------------------------------------

TEST(Chaos, LinkEpisodesStayExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 53;
    std::vector<StreamSpec> streams = two_streams(53, 1000);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.link_blackout(finish / 4, 400 * kMicrosecond, /*host=*/1);
    plan.burst_loss(finish / 2, 600 * kMicrosecond, /*host=*/2, 0.5);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().link_blackouts, 1u);
    EXPECT_EQ(cluster.chaos_stats().burst_loss_windows, 1u);
}

TEST(Chaos, RandomizedPlanOnLossyFabricStaysExact)
{
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.05, 0.02, 0.1);
    cc.ask.swap_threshold_packets = 48;
    cc.seed = 67;

    std::vector<StreamSpec> streams = two_streams(67, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);

    AskCluster cluster(cc);
    cluster.arm_chaos(sim::ChaosPlan::randomized(
        /*seed=*/67, /*horizon=*/50 * kMillisecond, /*episodes=*/12,
        /*num_hosts=*/cc.topology->num_hosts(),
        /*mean_duration=*/200 * kMicrosecond,
        /*intensity=*/0.4));

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
}

// ---------------------------------------------------------------------------
// Management-plane episodes: retry with backoff, bounded give-up.
// ---------------------------------------------------------------------------

TEST(Chaos, MgmtOutageIsRiddenOutByRetries)
{
    ClusterConfig cc = base_config();
    cc.seed = 71;
    Rng rng = seeded_rng("chaos_test", 71);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 300, 40)}};
    AggregateMap truth = truth_of(streams, AggOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // The outage covers task setup; retries with backoff outlast it.
    plan.mgmt_outage(0, 500 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.chaos_stats().mgmt_retries, 0u);
    EXPECT_EQ(cluster.chaos_stats().mgmt_giveups, 0u);
}

TEST(Chaos, PermanentMgmtOutageFailsSetupWithClearError)
{
    ClusterConfig cc = base_config();
    cc.ask.mgmt_max_tries = 4;
    cc.ask.mgmt_backoff_cap_ns = 100 * kMicrosecond;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.mgmt_outage(0, 3600UL * units::kSecond);
    cluster.arm_chaos(plan);

    Rng rng = seeded_rng("chaos_test", 73);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, {{1, mixed_stream(rng, 100, 20)}}, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kMgmtUnreachable) << report.detail;
    EXPECT_GE(cluster.chaos_stats().mgmt_giveups, 1u);
}

// ---------------------------------------------------------------------------
// Satellite: region exhaustion propagates to the application.
// ---------------------------------------------------------------------------

TEST(Chaos, RegionExhaustionFailsSecondTask)
{
    ClusterConfig cc = base_config();
    cc.seed = 83;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 83);
    std::vector<StreamSpec> s1{{1, mixed_stream(rng, 400, 50)}};
    AggregateMap truth = truth_of(s1, AggOp::kAdd);

    TaskResult first;
    TaskReport second;
    bool second_done = false;
    // Task 1 claims the whole free pool (region_len = 0); task 2 then
    // asks for 32 aggregators/AA while nothing is free.
    cluster.submit_task(1, 0, s1, {},
                        [&](AggregateMap m, TaskReport rep) {
                            first.result = std::move(m);
                            first.report = std::move(rep);
                        });
    cluster.submit_task(2, 1, {{2, mixed_stream(rng, 100, 20)}},
                        {.region_len = 32},
                        [&](AggregateMap, TaskReport rep) {
                            second = std::move(rep);
                            second_done = true;
                        });
    cluster.run();

    ASSERT_TRUE(first.ok()) << first.report.detail;
    EXPECT_EQ(first.result, truth);
    ASSERT_TRUE(second_done);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.status, TaskStatus::kRegionExhausted) << second.detail;
    EXPECT_EQ(cluster.chaos_stats().alloc_failures, 1u);
}

// ---------------------------------------------------------------------------
// Satellite: a dead sender fails the receive task within the liveness
// timeout instead of hanging forever.
// ---------------------------------------------------------------------------

TEST(Chaos, DeadSenderFailsReceiverByLivenessTimeout)
{
    ClusterConfig cc = base_config();
    cc.ask.sender_liveness_timeout_ns = 5 * kMillisecond;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 91);
    KvStream stream = mixed_stream(rng, 200, 30);

    TaskReport report;
    bool done = false;
    AskDaemon& rx = cluster.daemon(0);
    // The receiver expects two senders but only one ever streams.
    rx.start_receive(
        1, /*expected_senders=*/2, {},
        [&](AggregateMap, TaskReport rep) {
            report = std::move(rep);
            done = true;
        },
        [&] { cluster.daemon(1).submit_send(1, rx.node_id(), stream); });
    sim::SimTime end = cluster.run();

    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kSenderTimeout) << report.detail;
    EXPECT_EQ(cluster.chaos_stats().sender_timeouts, 1u);
    // It failed within (roughly) the timeout, not after hours of FIN
    // retries: the last activity is the lone sender's final packet.
    EXPECT_LT(end, 60 * kMillisecond);
}

// ---------------------------------------------------------------------------
// Satellite: the FIN retransmission budget is configurable and failing
// it reports the task instead of retrying forever.
// ---------------------------------------------------------------------------

TEST(Chaos, FinBudgetFailsSenderWhenReceiverIsGone)
{
    ClusterConfig cc = base_config();
    cc.ask.max_fin_tries = 5;
    cc.ask.sender_liveness_timeout_ns = 20 * kMillisecond;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 97);
    // Short keys only: the switch consumes every tuple and impersonates
    // the ACKs, so DATA completes even with the receiver dark — only
    // the FIN needs the receiver.
    KvStream stream = short_stream(rng, 200, 8);

    TaskStatus sender_status = TaskStatus::kOk;
    std::string sender_detail;
    cluster.daemon(1).set_task_failure_handler(
        [&](TaskId, TaskStatus status, const std::string& reason) {
            sender_status = status;
            sender_detail = reason;
        });

    sim::ChaosPlan plan;
    // The receiver's cable is dark from the start. Task setup and the
    // sender notification use the management/control path, so streaming
    // still begins.
    plan.link_blackout(0, 3600UL * units::kSecond, /*host=*/0);
    cluster.arm_chaos(plan);

    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, {{1, stream}}, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.run();

    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());  // liveness timeout at the receiver
    EXPECT_EQ(sender_status, TaskStatus::kSendBudgetExhausted)
        << sender_detail;
    EXPECT_EQ(cluster.chaos_stats().fin_giveups, 1u);
}

// ---------------------------------------------------------------------------
// Kitchen sink: every episode kind in one run, exactness holds.
// ---------------------------------------------------------------------------

TEST(Chaos, EverythingEverywhereStaysExact)
{
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.03, 0.01, 0.05);
    cc.seed = 101;
    std::vector<StreamSpec> streams = two_streams(101, 1500);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.burst_loss(finish / 6, 200 * kMicrosecond, 1, 0.4);
    plan.mgmt_delay(finish / 5, 2 * kMillisecond,
                    /*extra=*/100 * kMicrosecond);
    plan.switch_reboot(finish / 2, 250 * kMicrosecond);
    plan.link_blackout(finish * 3 / 4, 300 * kMicrosecond, 2);
    plan.mgmt_outage(finish * 5 / 6, 200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_EQ(cs.mgmt_delay_windows, 1u);
    EXPECT_EQ(cs.burst_loss_windows, 1u);
}

// ---------------------------------------------------------------------------
// Host durability: crash a host process mid-task; the WAL rebuild plus
// re-fencing must keep the delivered aggregate exactly-once.
// ---------------------------------------------------------------------------

TEST(Chaos, ReceiverCrashMidTaskRecoversExactly)
{
    ClusterConfig cc = base_config();
    cc.seed = 103;
    std::vector<StreamSpec> streams = two_streams(103, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 300 * kMicrosecond, /*host=*/0);  // the receiver
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_EQ(cs.host_recoveries, 1u);
    EXPECT_EQ(cs.wal_rejected, 0u);
    EXPECT_GT(cs.wal_appends, 0u);
    // The WAL is intact after the run and shows the recovery marker.
    EXPECT_TRUE(cluster.wal_store().host_wal(0).verify());
}

TEST(Chaos, SenderCrashMidTaskReplaysAndStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 107;
    std::vector<StreamSpec> streams = two_streams(107, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 300 * kMicrosecond, /*host=*/1);  // a sender
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_EQ(cs.host_recoveries, 1u);
    // A sender lost its in-flight accounting: exactness was
    // re-established by the cluster-wide replay reset.
    EXPECT_GE(cs.streams_replayed, 1u);
    EXPECT_GE(cs.tasks_reset, 1u);
}

TEST(Chaos, ReceiverCrashWithSwapsAndLossStaysExact)
{
    // Crash the receiver while shadow-copy swaps are in play on a lossy
    // fabric: recovery must reconcile a swap the switch may have
    // advanced past the last committed epoch in the WAL.
    ClusterConfig cc = base_config();
    cc.ask.swap_threshold_packets = 24;
    cc.faults = net::FaultSpec::lossy(0.05, 0.02, 0.08);
    cc.seed = 109;
    std::vector<StreamSpec> streams = two_streams(109, 1000);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 200 * kMicrosecond, /*host=*/0);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);
}

TEST(Chaos, ControllerCrashMidTaskStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 113;
    std::vector<StreamSpec> streams = two_streams(113, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.controller_crash(mid, 500 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.controller_crashes, 1u);
    EXPECT_EQ(cs.controller_recoveries, 1u);
    EXPECT_TRUE(cluster.wal_store()
                    .wal(controller_wal_name(SwitchId{0}))
                    .verify());
}

TEST(Chaos, ControllerCrashThenSwitchRebootStaysExact)
{
    // The reboot's reinstall runs against a down controller; the
    // controller's own recovery must restore the missing installs.
    ClusterConfig cc = base_config();
    cc.seed = 127;
    std::vector<StreamSpec> streams = two_streams(127, 1500);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.controller_crash(finish / 3, 500 * kMicrosecond);
    plan.switch_reboot(finish / 3 + 100 * kMicrosecond,
                       200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().controller_recoveries, 1u);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(Chaos, CrashPlansLeaveNoUnhandledEvents)
{
    // Satellite: with the full cluster wiring armed, every chaos kind —
    // including the crash/restart events — must reach a handler.
    ClusterConfig cc = base_config();
    cc.seed = 131;
    std::vector<StreamSpec> streams = two_streams(131, 800);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 200 * kMicrosecond, 1);
    plan.controller_crash(mid + 400 * kMicrosecond, 300 * kMicrosecond);
    plan.mgmt_outage(mid / 2, 100 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    ASSERT_NE(cluster.fault_scheduler(), nullptr);
    EXPECT_EQ(cluster.fault_scheduler()->unhandled_events(), 0u);
    EXPECT_EQ(cluster.chaos_stats().unhandled_events, 0u);
}

TEST(Chaos, CorruptWalAbortsTaskWithHostCrashedStatus)
{
    // Crash the receiver, then damage its log before the restart: the
    // replay must reject the log (typed error, no UB) and fail the
    // task with kHostCrashed instead of rebuilding silently-wrong
    // state.
    ClusterConfig cc = base_config();
    cc.seed = 137;
    std::vector<StreamSpec> streams = two_streams(137, 1000);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, streams, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.simulator().schedule_at(mid, [&] {
        cluster.crash_host(0);
        // Media corruption inside the first journaled record.
        cluster.wal_store().host_wal(0).flip_byte(10);
        cluster.restart_host(0);
    });
    cluster.run();

    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kHostCrashed) << report.detail;
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.wal_rejected, 1u);
    EXPECT_GE(cs.crash_aborted_tasks, 1u);
}

TEST(Chaos, CorruptSendRecordFailsReplayWithHostCrashedStatus)
{
    // Replay re-reads each stream from the sender's WAL, its only copy.
    // Damage the live sender's kSendSubmit record, then reboot the
    // switch: the replay must reject the record (typed error, no abort)
    // and fail the task with kHostCrashed.
    ClusterConfig cc = base_config();
    cc.seed = 149;
    std::vector<StreamSpec> streams = two_streams(149, 1000);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 200 * kMicrosecond);
    cluster.arm_chaos(plan);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, streams, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.simulator().schedule_at(mid + 100 * kMicrosecond, [&] {
        // While the switch is down. Host 1's first record is its
        // kSendSubmit; byte 10 is inside the payload.
        ASSERT_EQ(cluster.wal_store().host_wal(1).read(0).kind,
                  WalRecordKind::kSendSubmit);
        cluster.wal_store().host_wal(1).flip_byte(10);
    });
    cluster.run();

    ASSERT_TRUE(done);
    EXPECT_EQ(report.status, TaskStatus::kHostCrashed) << report.detail;
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_EQ(cs.wal_rejected, 1u);
    EXPECT_GE(cs.crash_aborted_tasks, 1u);
}

TEST(Chaos, CrashAfterDrainRecoversToEmptyState)
{
    // A crash landing after the task finished must recover cleanly from
    // a log whose every task reached its done record.
    ClusterConfig cc = base_config();
    cc.seed = 139;
    std::vector<StreamSpec> streams = two_streams(139, 400);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(finish * 2, 100 * kMicrosecond, 0);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);

    WalDaemonState state = rebuild_daemon_state(
        cluster.wal_store().host_wal(0).replay(), cc.ask.op);
    EXPECT_TRUE(state.rx_tasks.empty());
    EXPECT_TRUE(state.sends.empty());
    EXPECT_EQ(state.recoveries, 1u);
}


// ---------------------------------------------------------------------------
// One receive-task state machine: a reset applies the journaled kRxReset
// transition, so it keeps the task's swap policy and restarts the report
// counters exactly as the WAL fold does.
// ---------------------------------------------------------------------------

/** Run task 1 (receiver host 0) with a switch reboot at `reboot_at`. */
TaskResult
run_with_reboot(AskCluster& cluster, const std::vector<StreamSpec>& streams,
                sim::SimTime reboot_at, const TaskOptions& options = {})
{
    sim::ChaosPlan plan;
    plan.switch_reboot(reboot_at, 200 * kMicrosecond);
    cluster.arm_chaos(plan);
    return cluster.run_task(1, 0, streams, options);
}

TEST(Chaos, SwapDisabledTaskNeverSwapsAcrossARebootReset)
{
    ClusterConfig cc = base_config();
    cc.seed = 151;
    cc.ask.swap_threshold_packets = 4;
    std::vector<StreamSpec> streams = two_streams(151, 1200);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    TaskResult r = run_with_reboot(
        cluster, streams, mid,
        {.swap_policy = TaskOptions::SwapPolicy::kDisabled});
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().tasks_reset, 1u);
    EXPECT_EQ(r.report.swaps, 0u);
    EXPECT_EQ(cluster.total_host_stats().swap_requests, 0u);
    EXPECT_EQ(cluster.total_switch_stats().swaps, 0u);
}

TEST(Chaos, FabricTaskNeverSwapsAcrossARebootReset)
{
    // A multi-rack fabric forces kDisabled on every task; a ToR reboot
    // resets the receiver, and the policy must survive that reset.
    ClusterConfig cc = base_config();
    cc.topology = TopologyBuilder().racks(2, 2).build();
    cc.ask.max_hosts = 4;
    cc.ask.channels_per_host = 2;
    cc.ask.swap_threshold_packets = 4;
    cc.seed = 157;
    Rng rng = seeded_rng("chaos_test", 157);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 1200, 60)},
                                    {2, mixed_stream(rng, 1200, 60)},
                                    {3, mixed_stream(rng, 1200, 60)}};
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    TaskResult r = run_with_reboot(cluster, streams, mid);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().tasks_reset, 1u);
    EXPECT_EQ(r.report.swaps, 0u);
    EXPECT_EQ(cluster.total_host_stats().swap_requests, 0u);
    EXPECT_EQ(cluster.total_switch_stats().swaps, 0u);
}

TEST(Chaos, ResetTaskReportMatchesTheFoldOfItsLog)
{
    ClusterConfig cc = base_config();
    cc.seed = 163;
    cc.ask.swap_threshold_packets = 16;
    std::vector<StreamSpec> streams = two_streams(163, 1500);
    AggregateMap truth = truth_of(streams, AggOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;
    sim::SimTime reboot_end = mid + 200 * kMicrosecond;

    AskCluster cluster(cc);
    // The reset runs at the end of the reboot; every switch fetch of the
    // task's new life comes after this snapshot.
    std::uint64_t fetched_before_reset = 0;
    std::uint64_t packets_before_reset = 0;
    cluster.simulator().schedule_at(reboot_end + 1, [&] {
        fetched_before_reset = cluster.total_host_stats().fetch_tuples;
        packets_before_reset = cluster.total_host_stats().packets_received;
    });
    std::vector<WalRecord> log;
    std::uint64_t fetched_at_done = 0;
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 200 * kMicrosecond);
    cluster.arm_chaos(plan);
    TaskResult r;
    cluster.submit_task(1, 0, streams, {},
                        [&](AggregateMap result, TaskReport report) {
                            r.result = std::move(result);
                            r.report = std::move(report);
                            log = cluster.wal_store().host_wal(0).replay();
                            fetched_at_done =
                                cluster.total_host_stats().fetch_tuples;
                        });
    cluster.run();
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    ASSERT_EQ(cluster.chaos_stats().tasks_reset, 1u);
    ASSERT_GT(packets_before_reset, 0u);

    // Fold the receiver's log up to (not including) the task's done
    // record: the state the report was read from.
    auto done = std::find_if(log.begin(), log.end(), [](const WalRecord& w) {
        return w.kind == WalRecordKind::kRxTaskDone && w.task == 1;
    });
    ASSERT_NE(done, log.end());
    WalDaemonState state = rebuild_daemon_state(
        std::vector<WalRecord>(log.begin(), done), cc.ask.op);
    const WalRxTaskState& t = state.rx_tasks.at(1);
    EXPECT_GT(t.packets_received, 0u);
    EXPECT_GT(t.swaps, 0u);
    EXPECT_EQ(r.report.tuples_aggregated_locally, t.tuples_aggregated_locally);
    EXPECT_EQ(r.report.packets_received, t.packets_received);
    EXPECT_EQ(r.report.swaps, t.swaps);
    // The switch-fetched count is the fold's swap-commit drains plus the
    // final drain, which kRxTaskDone does not journal: together, every
    // fetch since the reset.
    EXPECT_GE(r.report.tuples_fetched_from_switch,
              t.tuples_fetched_from_switch);
    EXPECT_EQ(r.report.tuples_fetched_from_switch,
              fetched_at_done - fetched_before_reset);
}

// ---------------------------------------------------------------------------
// A send job that fails for good ends its task with the job's status and
// releases everything the task held.
// ---------------------------------------------------------------------------

TEST(Chaos, FailedSenderEndsItsTaskWithItsStatus)
{
    // One burst-loss window on sender host 0's cable: a bypass frame of
    // task 1 exhausts max_data_tries, and the receiver must hear of it
    // instead of waiting for a FIN that never comes.
    testing::DiffResult d = testing::run_differential(
        testing::generate_scenario(4758209139717424467ULL));
    for (const testing::TaskOutcome& t : d.tasks) {
        EXPECT_TRUE(t.done) << "task " << t.task;
        EXPECT_EQ(t.status, t.task == 1 ? "send_budget_exhausted" : "ok")
            << "task " << t.task;
    }
    for (const testing::ProbeFailure& p : d.probe_failures)
        ADD_FAILURE() << p.probe << ": " << p.detail;
}

// ---------------------------------------------------------------------------
// Overlapping causes keep the management endpoint dark: it comes back
// only when no outage window is open, the controller is up and every
// switch is online.
// ---------------------------------------------------------------------------

TEST(Chaos, OverlappingOutagesKeepTheManagementPlaneDark)
{
    auto down_at = [](const sim::ChaosPlan& inner,
                      std::vector<sim::SimTime> probes) {
        AskCluster cluster(base_config());
        sim::ChaosPlan plan = inner;
        plan.mgmt_outage(100 * kMicrosecond, 1000 * kMicrosecond);
        cluster.arm_chaos(plan);
        std::vector<bool> down(probes.size());
        for (std::size_t i = 0; i < probes.size(); ++i)
            cluster.simulator().schedule_at(probes[i], [&, i] {
                down[i] = cluster.mgmt().down();
            });
        cluster.run();
        return down;
    };
    const std::vector<sim::SimTime> probes{600 * kMicrosecond,
                                           1200 * kMicrosecond};
    const std::vector<bool> dark_then_up{true, false};

    sim::ChaosPlan controller;
    controller.controller_crash(200 * kMicrosecond, 100 * kMicrosecond);
    EXPECT_EQ(down_at(controller, probes), dark_then_up);

    sim::ChaosPlan reboot;
    reboot.switch_reboot(200 * kMicrosecond, 100 * kMicrosecond);
    EXPECT_EQ(down_at(reboot, probes), dark_then_up);

    sim::ChaosPlan second;
    second.mgmt_outage(150 * kMicrosecond, 200 * kMicrosecond);
    EXPECT_EQ(down_at(second, probes), dark_then_up);
}


TEST(Chaos, AbortWhileTheReceiverIsDownEndsTheRebuiltTask)
{
    // The receiver is down when a damaged send record fails the replay:
    // the task is delivered failed at once, and the receiver, once its
    // WAL rebuild brings the task back, must end it too (done record,
    // region released) instead of waiting for senders that are gone.
    ClusterConfig cc = base_config();
    cc.seed = 167;
    std::vector<StreamSpec> streams = two_streams(167, 1000);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    std::uint32_t free_before = cluster.controller().free_aggregators();
    sim::ChaosPlan plan;
    plan.host_crash(mid, 1000 * kMicrosecond, 0);
    plan.switch_reboot(mid + 100 * kMicrosecond, 200 * kMicrosecond);
    cluster.arm_chaos(plan);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, streams, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.simulator().schedule_at(mid + 50 * kMicrosecond, [&] {
        cluster.wal_store().host_wal(1).flip_byte(10);
    });
    cluster.run();

    ASSERT_TRUE(done);
    EXPECT_EQ(report.status, TaskStatus::kHostCrashed) << report.detail;
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);
    WalDaemonState state = rebuild_daemon_state(
        cluster.wal_store().host_wal(0).replay(), cc.ask.op);
    EXPECT_TRUE(state.rx_tasks.empty());
    EXPECT_EQ(cluster.controller().free_aggregators(), free_before);
}

}  // namespace
}  // namespace ask::core
