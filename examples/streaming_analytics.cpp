/**
 * Streaming analytics — a real-time key-value stream with heavy skew,
 * unreliable networking, and concurrent tenants.
 *
 * Demonstrates the pieces §3.3 and §3.4 exist for:
 *  - exactly-once aggregation under injected loss/duplication/reorder
 *    (the result is compared against a ground-truth host aggregation);
 *  - hot-key-agnostic prioritization: shadow-copy swaps let hot keys
 *    reclaim aggregators that cold keys grabbed first;
 *  - multi-tenancy: two independent aggregation tasks multiplex the
 *    switch memory and the host daemons.
 *
 *   ./build/examples/streaming_analytics
 */
#include <algorithm>
#include <iostream>
#include <vector>

#include "ask/cluster.h"
#include "common/string_util.h"
#include "workload/generators.h"

int
main()
{
    using namespace ask;

    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(4).build();
    cc.ask.max_hosts = 4;
    cc.ask.medium_groups = 0;
    cc.ask.swap_threshold_packets = 128;       // aggressive hot-key swaps
    cc.faults = net::FaultSpec::lossy(0.05, 0.02, 0.10);  // a rough network
    core::AskCluster cluster(cc);

    // Two tenants: a clickstream (Zipf-skewed event ids, cold-first --
    // the worst case for FCFS aggregators) and a metrics feed.
    workload::ZipfGenerator clicks(4096, 1.1, 77, "c-");
    workload::UniformGenerator metrics(512, 78, "m-");
    std::vector<core::StreamSpec> click_streams{
        {1, clicks.generate(60000, workload::KeyOrder::kColdFirst)},
        {2, clicks.generate(60000, workload::KeyOrder::kColdFirst)},
    };
    std::vector<core::StreamSpec> metric_streams{
        {3, metrics.generate(30000)},
    };

    core::AggregateMap clicks_truth, metrics_truth;
    for (const auto& s : click_streams)
        core::aggregate_into(clicks_truth, s.stream, core::AggOp::kAdd);
    for (const auto& s : metric_streams)
        core::aggregate_into(metrics_truth, s.stream, core::AggOp::kAdd);

    core::TaskResult clicks_result;
    core::TaskResult metrics_result;
    cluster.submit_task(1, 0, click_streams, {.region_len = 512},
                        [&](core::AggregateMap m, core::TaskReport rep) {
                            clicks_result = {std::move(m), rep};
                        });
    cluster.submit_task(2, 3, metric_streams, {.region_len = 512},
                        [&](core::AggregateMap m, core::TaskReport rep) {
                            metrics_result = {std::move(m), rep};
                        });
    cluster.run();

    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    core::HostStats hosts = cluster.total_host_stats();

    std::cout << "clickstream tenant: "
              << (clicks_result.result == clicks_truth ? "EXACT" : "WRONG")
              << " result (" << clicks_result.result.size()
              << " keys), " << clicks_result.report.swaps
              << " shadow-copy swaps\n";
    std::cout << "metrics tenant:     "
              << (metrics_result.result == metrics_truth ? "EXACT" : "WRONG")
              << " result (" << metrics_result.result.size() << " keys)\n\n";

    std::cout << "network dropped/duplicated packets; reliability layer "
                 "retransmitted " << hosts.retransmissions
              << " times and the switch deduplicated " << sw.duplicates
              << " retransmissions -- every tuple aggregated exactly once.\n";

    // Top-5 hot keys of the clickstream.
    std::vector<std::pair<core::Key, std::uint64_t>> top(
        clicks_result.result.begin(), clicks_result.result.end());
    std::sort(top.begin(), top.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::cout << "\nhottest click keys:\n";
    for (std::size_t i = 0; i < 5 && i < top.size(); ++i) {
        // Keys are binary-encoded ids; render them as hex for display.
        std::string hex;
        for (unsigned char c : top[i].first)
            hex += strf("%02x", c);
        std::cout << "  0x" << hex << " -> " << top[i].second << "\n";
    }
    return 0;
}
