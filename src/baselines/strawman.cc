#include "baselines/strawman.h"

#include <bit>

namespace ask::baselines {

core::ClusterConfig
strawman_cluster(std::uint32_t hosts, std::uint32_t channels_per_host,
                 std::uint32_t expected_distinct_keys)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(hosts).build();
    cc.ask.num_aas = 1;
    cc.ask.medium_groups = 0;
    cc.ask.shadow_copies = false;
    cc.ask.swap_threshold_packets = 0;
    // Assumption (3): all keys fit. Provision 4x the distinct keys so
    // hash collisions are rare (load factor 0.25).
    cc.ask.aggregators_per_aa = std::bit_ceil(expected_distinct_keys * 4);
    cc.ask.channels_per_host = channels_per_host;
    cc.ask.max_hosts = hosts;
    // Assumption (3) again: switch memory is not a constraint for the
    // strawman, so grow the modeled SRAM budget if the pool needs it.
    std::size_t aa_bytes = static_cast<std::size_t>(cc.ask.aggregators_per_aa) * 8;
    cc.switch_sram_per_stage =
        std::max(cc.switch_sram_per_stage, aa_bytes + (1u << 20));
    return cc;
}

}  // namespace ask::baselines
