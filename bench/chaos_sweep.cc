/**
 * Chaos sweep — aggregation-task completion time and exactness under
 * escalating fault injection: randomized link episodes of growing
 * density, a mid-task switch reboot, host and controller crashes
 * recovered from the write-ahead log, and a permanently sick data plane
 * (degraded host-side aggregation). Not a paper figure: this quantifies
 * the robustness machinery's cost — recovery is worth little if it is
 * exact but ruinously slow.
 */
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "sim/chaos.h"

namespace {

using namespace ask;
using core::AggregateMap;
using core::AskCluster;
using core::ClusterConfig;
using core::KvStream;
using core::StreamSpec;
using core::TaskResult;

KvStream
sweep_stream(Rng& rng, std::size_t n)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = rng.next_below(400);
        std::size_t len = 1 + id % 12;
        std::string key;
        std::uint64_t x = mix64(id + 1);
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + (x >> (5 * (j % 12))) % 26));
        s.push_back({key, static_cast<core::Value>(1 + id % 9)});
    }
    return s;
}

ClusterConfig
sweep_config()
{
    ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(4).build();
    cc.ask.max_hosts = 4;
    cc.ask.aggregators_per_aa = 512;
    cc.ask.swap_threshold_packets = 64;
    cc.faults = net::FaultSpec::lossy(0.01, 0.005, 0.05);
    // Chaos episodes stack loss windows on an already lossy fabric; a
    // generous budget keeps transient episodes from tripping the
    // degraded-mode detector meant for a *dead* switch path.
    cc.ask.max_data_tries = 200;
    cc.seed = 7;
    return cc;
}

struct RowResult
{
    sim::SimTime jct = 0;
    bool exact = false;
    core::ChaosStats stats;
    std::uint64_t retransmissions = 0;
    obs::Json metrics;
};

RowResult
run_one(const sim::ChaosPlan& plan, const std::vector<StreamSpec>& streams,
        const AggregateMap& truth)
{
    AskCluster cluster(sweep_config());
    // Periodic time-series sampling of goodput, core occupancy, the
    // switch aggregation ratio, and the congestion state; the resulting
    // snapshot rides along in the JSON report.
    cluster.enable_sampling(100 * units::kMicrosecond);
    if (!plan.empty())
        cluster.arm_chaos(plan);
    TaskResult r = cluster.run_task(1, 0, streams);
    RowResult out;
    out.jct = r.ok() ? r.report.finish_time : 0;
    out.exact = r.ok() && r.result == truth;
    out.stats = cluster.chaos_stats();
    out.retransmissions = cluster.total_host_stats().retransmissions;
    out.metrics = cluster.metrics_snapshot().to_json();
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "chaos_sweep",
        "task completion vs fault-episode density under chaos injection",
        argc, argv);
    bool full = report.full();

    bench::banner("Chaos sweep",
                  "task completion vs fault-episode density (exactness must "
                  "hold in every row)");

    std::size_t n = report.smoke() ? 4000 : (full ? 60000 : 12000);
    report.param("tuples_per_sender", std::uint64_t{n});
    report.param("senders", 3);
    Rng rng = seeded_rng("chaos_sweep", 7);
    std::vector<StreamSpec> streams{{1, sweep_stream(rng, n)},
                                    {2, sweep_stream(rng, n)},
                                    {3, sweep_stream(rng, n)}};
    AggregateMap truth;
    for (const auto& s : streams)
        core::aggregate_into(truth, s.stream, core::AggOp::kAdd);

    RowResult base = run_one(sim::ChaosPlan{}, streams, truth);
    sim::SimTime horizon = base.jct * 2;

    TextTable t;
    t.header({"scenario", "JCT (ms)", "slowdown", "retx", "replays",
              "degraded", "exact"});
    auto add_row = [&](const std::string& name, const RowResult& r) {
        t.row({name,
               fmt_double(static_cast<double>(r.jct) / units::kMillisecond,
                          2),
               fmt_double(base.jct
                              ? static_cast<double>(r.jct) /
                                    static_cast<double>(base.jct)
                              : 0.0,
                          2),
               std::to_string(r.retransmissions),
               std::to_string(r.stats.streams_replayed),
               std::to_string(r.stats.degraded_entries),
               r.exact ? "yes" : "NO"});
        report.row({{"scenario", name},
                    {"jct_ms",
                     static_cast<double>(r.jct) / units::kMillisecond},
                    {"slowdown", base.jct
                                     ? static_cast<double>(r.jct) /
                                           static_cast<double>(base.jct)
                                     : 0.0},
                    {"retransmissions", r.retransmissions},
                    {"streams_replayed", r.stats.streams_replayed},
                    {"degraded_entries", r.stats.degraded_entries},
                    {"exact", r.exact}});
    };
    add_row("no chaos", base);

    for (std::uint32_t episodes : {4u, 8u, 16u, 32u}) {
        sim::ChaosPlan plan = sim::ChaosPlan::randomized(
            /*seed=*/100 + episodes, horizon, episodes, /*num_hosts=*/4,
            /*mean_duration=*/200 * units::kMicrosecond, /*intensity=*/0.5);
        add_row(strf("%u link episodes", episodes),
                run_one(plan, streams, truth));
    }

    {
        sim::ChaosPlan plan;
        plan.switch_reboot(base.jct / 2, 300 * units::kMicrosecond);
        add_row("switch reboot mid-task", run_one(plan, streams, truth));
    }
    {
        sim::ChaosPlan plan;
        plan.switch_reboot(base.jct / 3, 300 * units::kMicrosecond);
        plan.switch_reboot(2 * base.jct / 3, 300 * units::kMicrosecond);
        add_row("two switch reboots", run_one(plan, streams, truth));
    }
    // ---- host-crash axis: WAL recovery cost by crashed role -------------
    {
        sim::ChaosPlan plan;
        plan.host_crash(base.jct / 2, 300 * units::kMicrosecond,
                        /*host=*/0);  // the receiver
        add_row("receiver crash mid-task", run_one(plan, streams, truth));
    }
    {
        sim::ChaosPlan plan;
        plan.host_crash(base.jct / 2, 300 * units::kMicrosecond,
                        /*host=*/1);  // a sender: full replay reset
        add_row("sender crash mid-task", run_one(plan, streams, truth));
    }
    {
        sim::ChaosPlan plan;
        plan.host_crash(base.jct / 3, 250 * units::kMicrosecond, /*host=*/1);
        plan.host_crash(2 * base.jct / 3, 250 * units::kMicrosecond,
                        /*host=*/0);
        add_row("sender then receiver crash", run_one(plan, streams, truth));
    }
    {
        sim::ChaosPlan plan;
        plan.controller_crash(base.jct / 2, 500 * units::kMicrosecond);
        add_row("controller crash mid-task", run_one(plan, streams, truth));
    }
    {
        sim::ChaosPlan plan;
        plan.controller_crash(base.jct / 3, 400 * units::kMicrosecond);
        plan.controller_crash(2 * base.jct / 3, 400 * units::kMicrosecond);
        add_row("two controller crashes", run_one(plan, streams, truth));
    }

    {
        sim::ChaosPlan plan;
        plan.data_blackhole(0, 3600UL * units::kSecond);
        // The dead path should be detected fast, not after 200 tries.
        ClusterConfig cc = sweep_config();
        cc.ask.max_data_tries = 8;
        AskCluster cluster(cc);
        cluster.arm_chaos(plan);
        TaskResult r = cluster.run_task(1, 0, streams);
        RowResult row;
        row.jct = r.ok() ? r.report.finish_time : 0;
        row.exact = r.ok() && r.result == truth;
        row.stats = cluster.chaos_stats();
        row.retransmissions = cluster.total_host_stats().retransmissions;
        add_row("sick data plane (degraded)", row);
    }

    t.print(std::cout);
    report.metrics(base.metrics);
    report.note("recovery cost: link episodes cost retransmissions, a "
                "reboot costs a drain window plus a full replay, a host "
                "crash costs a WAL rebuild (plus a cluster-wide replay "
                "reset when a sender died mid-stream), and the degraded "
                "mode trades the switch's aggregation for host-side "
                "exactness");
    return 0;
}
