/**
 * Tests for the sharded parallel engine (sim/engine.h) and the
 * simulator primitives it is built on. The central claim under test is
 * the determinism contract of docs/CONCURRENCY.md: for a fixed input,
 * every observable result — event traces, timestamps, aggregate maps —
 * is bit-for-bit identical at any thread count, including 1.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "sim/engine.h"
#include "sim/options.h"
#include "sim/simulator.h"

namespace ask::sim {
namespace {

TEST(Simulator, RunBeforeIsStrict)
{
    Simulator s;
    std::vector<int> order;
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.schedule_at(30, [&] { order.push_back(3); });
    s.run_before(30);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // now() stays at the last executed event, not the window end.
    EXPECT_EQ(s.now(), 20);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunBeforeIncludesEventsScheduledIntoTheWindow)
{
    Simulator s;
    std::vector<SimTime> fired;
    s.schedule_at(10, [&] {
        fired.push_back(s.now());
        s.schedule_at(15, [&] { fired.push_back(s.now()); });
    });
    s.run_before(20);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, NextEventTimeSkipsCancelledHeads)
{
    Simulator s;
    EventId a = s.schedule_at(5, [] {});
    s.schedule_at(9, [] {});
    s.cancel(a);
    SimTime t = 0;
    ASSERT_TRUE(s.next_event_time(&t));
    EXPECT_EQ(t, 9);

    Simulator drained;
    EXPECT_FALSE(drained.next_event_time(&t));
}

TEST(SimOptions, DefaultIsSequential)
{
    SimOptions options;
    EXPECT_EQ(options.num_threads, 1u);
}

/** The trace one island writes: (event time, tag) in execution order.
 *  Island-confined state — only the worker running the island appends. */
using Trace = std::vector<std::pair<SimTime, int>>;

/**
 * A deterministic multi-island workload: islands pass tokens around a
 * ring via post(), each hop re-tagging and sometimes forking into two
 * tokens, until a hop budget runs out. Returns every island's trace.
 */
std::vector<Trace>
run_ring(unsigned num_threads, std::uint32_t islands, int hops)
{
    SimOptions options;
    options.num_threads = num_threads;
    ParallelEngine engine(options);
    constexpr SimTime kLookahead = 100;
    engine.set_lookahead(kLookahead);

    std::vector<Trace> traces(islands);
    for (std::uint32_t i = 0; i < islands; ++i)
        engine.add_island("island-" + std::to_string(i));

    // The hop handler: record, then forward (and occasionally fork).
    std::function<void(IslandId, int, int)> hop = [&](IslandId at, int tag,
                                                      int remaining) {
        traces[at].push_back({engine.island(at).now(), tag});
        if (remaining == 0)
            return;
        IslandId next = (at + 1) % islands;
        SimTime delay = kLookahead + (tag % 3) * 10;
        engine.post(at, next, delay, [&hop, next, tag, remaining] {
            hop(next, tag + 1, remaining - 1);
        });
        if (tag % 4 == 0) {
            engine.post(at, next, kLookahead * 2,
                        [&hop, next, tag, remaining] {
                            hop(next, tag + 100, remaining - 1);
                        });
        }
    };

    for (std::uint32_t i = 0; i < islands; ++i) {
        engine.island(i).schedule_at(
            static_cast<SimTime>(i) * 7,
            [&hop, i, hops] { hop(i, static_cast<int>(i), hops); });
    }
    engine.run();
    return traces;
}

TEST(ParallelEngine, RingTraceIdenticalAtEveryThreadCount)
{
    std::vector<Trace> reference = run_ring(1, 4, 12);
    ASSERT_FALSE(reference[0].empty());
    for (unsigned threads : {2u, 4u, 8u}) {
        std::vector<Trace> got = run_ring(threads, 4, 12);
        EXPECT_EQ(got, reference) << "thread count " << threads;
    }
}

TEST(ParallelEngine, SingleIslandMatchesPlainSimulator)
{
    // The same program on a plain Simulator and on a 1-island engine
    // (4 threads — a single island still runs alone in its window).
    auto program = [](Simulator& s, std::vector<SimTime>& fired) {
        for (SimTime t : {30, 10, 20, 10})
            s.schedule_at(t, [&s, &fired] { fired.push_back(s.now()); });
    };
    Simulator plain;
    std::vector<SimTime> plain_fired;
    program(plain, plain_fired);
    plain.run();

    SimOptions options;
    options.num_threads = 4;
    ParallelEngine engine(options);
    IslandId only = engine.add_island("only");
    std::vector<SimTime> engine_fired;
    program(engine.island(only), engine_fired);
    SimTime end = engine.run();

    EXPECT_EQ(engine_fired, plain_fired);
    EXPECT_EQ(end, plain.now());
}

TEST(ParallelEngine, RunUntilAdvancesIdleIslands)
{
    SimOptions options;
    options.num_threads = 2;
    ParallelEngine engine(options);
    IslandId a = engine.add_island("a");
    IslandId b = engine.add_island("b");
    bool fired = false;
    engine.island(a).schedule_at(50, [&] { fired = true; });
    SimTime end = engine.run_until(200);
    EXPECT_TRUE(fired);
    EXPECT_EQ(end, 200);
    // Both islands' clocks reach the deadline, mirroring run_until on
    // a plain simulator — island b never had an event at all.
    EXPECT_EQ(engine.island(a).now(), 200);
    EXPECT_EQ(engine.island(b).now(), 200);
}

TEST(ParallelEngine, RunIsolatedFoldsIdenticallyAtEveryThreadCount)
{
    auto campaign = [](unsigned threads) {
        SimOptions options;
        options.num_threads = threads;
        ParallelEngine engine(options);
        std::vector<std::uint64_t> results(64);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            jobs.push_back([&results, i] {
                // A little simulation per job: independent state only.
                Simulator s;
                std::uint64_t acc = i;
                for (SimTime t = 1; t <= 20; ++t)
                    s.schedule_at(t * 3, [&acc, t] { acc = acc * 31 + t; });
                s.run();
                results[i] = acc;
            });
        }
        engine.run_isolated(jobs);
        return results;
    };
    std::vector<std::uint64_t> reference = campaign(1);
    for (unsigned threads : {2u, 4u})
        EXPECT_EQ(campaign(threads), reference) << "threads " << threads;
}

// ---- whole clusters as islands -------------------------------------------

core::ClusterConfig
small_cluster(std::uint32_t hosts)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(hosts).build();
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 256;
    cc.ask.medium_groups = 2;
    cc.ask.medium_segments = 2;
    cc.ask.window = 16;
    cc.ask.channels_per_host = 2;
    cc.ask.max_hosts = hosts;
    cc.ask.max_tasks = 8;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

core::KvStream
counting_stream(std::size_t n, std::uint64_t salt)
{
    core::KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string key = "k" + std::to_string((i * 7 + salt) % 23);
        s.push_back({key, static_cast<core::Value>(1 + (i + salt) % 5)});
    }
    return s;
}

TEST(ParallelEngine, ClustersOnIslandsMatchStandaloneRuns)
{
    // Reference: each cluster runs alone on its own simulator.
    auto run_standalone = [](std::uint64_t salt) {
        core::AskCluster cluster(small_cluster(3));
        std::vector<core::StreamSpec> streams{
            {1, counting_stream(400, salt)},
            {2, counting_stream(300, salt + 1)}};
        core::TaskResult r = cluster.run_task(1, 0, streams);
        EXPECT_TRUE(r.ok());
        return r.result;
    };
    core::AggregateMap want_a = run_standalone(5);
    core::AggregateMap want_b = run_standalone(9);

    // The same two deployments as replica islands of one engine: the
    // external-simulator constructor registers every cluster event on
    // the island's queue, and the engine drains both in parallel.
    for (unsigned threads : {1u, 2u, 4u}) {
        SimOptions options;
        options.num_threads = threads;
        ParallelEngine engine(options);
        IslandId ia = engine.add_island("cluster-a");
        IslandId ib = engine.add_island("cluster-b");
        core::AskCluster a(small_cluster(3), engine.island(ia));
        core::AskCluster b(small_cluster(3), engine.island(ib));

        core::AggregateMap got_a;
        core::AggregateMap got_b;
        bool done_a = false;
        bool done_b = false;
        a.submit_task(1, 0,
                      {{1, counting_stream(400, 5)},
                       {2, counting_stream(300, 6)}},
                      {},
                      [&](core::AggregateMap result, core::TaskReport) {
                          got_a = std::move(result);
                          done_a = true;
                      });
        b.submit_task(1, 0,
                      {{1, counting_stream(400, 9)},
                       {2, counting_stream(300, 10)}},
                      {},
                      [&](core::AggregateMap result, core::TaskReport) {
                          got_b = std::move(result);
                          done_b = true;
                      });
        engine.run();

        EXPECT_TRUE(done_a && done_b) << "threads " << threads;
        EXPECT_EQ(got_a, want_a) << "threads " << threads;
        EXPECT_EQ(got_b, want_b) << "threads " << threads;
    }
}

}  // namespace
}  // namespace ask::sim
