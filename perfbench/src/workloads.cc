#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ask/key_space.h"
#include "ask/topology.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/units.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace perfbench {

namespace {

using ask::HostId;
using ask::Rng;
using ask::core::ClusterConfig;
using ask::core::KeyClass;
using ask::core::KeySpace;
using ask::core::KvStream;
using ask::core::ReduceOp;
using ask::core::StreamSpec;
using ask::core::TopologyBuilder;

/** Independent random stream for (seed, purpose, index). */
Rng
rng_for(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index)
{
    return Rng(ask::mix64(seed ^ ask::mix64(purpose * 0x10001 + index)));
}

std::uint64_t
scaled(std::uint64_t n, double scale, std::uint64_t multiple)
{
    auto v = static_cast<std::uint64_t>(std::llround(n * scale));
    v = v / multiple * multiple;
    return std::max(v, multiple);
}

void
count_inputs(Workload& w)
{
    for (const auto& tenant : w.tenants) {
        for (const auto& t : tenant) {
            ++w.tasks;
            for (const auto& s : t.streams)
                w.tuples += s.stream.size();
        }
    }
}

/**
 * uniform_fabric: 4 racks x 2 hosts under one tier switch; the 7 other
 * hosts stream to host 0. 112 concurrent tasks, each with two short
 * keys per payload slot, sent slot by slot so every DATA packet is full
 * and the ToRs absorb nearly every tuple. The key set is fixed (the
 * collision pattern, and so the traffic mix, does not depend on the
 * seed); the seed draws the values and adds 0-3 full packets to each
 * stream.
 */
Workload
uniform_fabric(std::uint64_t seed, double scale)
{
    constexpr std::uint32_t kTasks = 112;
    constexpr std::uint32_t kKeysPerSlot = 2;

    Workload w;
    w.name = "uniform_fabric";
    ClusterConfig& cc = w.config;
    cc.topology = TopologyBuilder().racks(4, 2).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;
    cc.ask.max_tasks = kTasks;
    cc.seed = seed;

    const KeySpace ks(cc.ask);
    const std::uint32_t slots = cc.ask.short_aas();
    const std::uint64_t per_stream = scaled(2048, scale, slots);
    const std::uint32_t senders = cc.topology->num_hosts() - 1;

    for (std::uint32_t t = 0; t < kTasks; ++t) {
        std::vector<std::vector<ask::core::Key>> by_slot(slots);
        std::uint32_t filled = 0;
        for (std::uint64_t id = std::uint64_t{t} << 16; filled < slots; ++id) {
            ask::core::Key key = ask::u64_key(id);
            if (ks.classify(key) != KeyClass::kShort)
                continue;
            auto& bucket = by_slot[ks.short_slot(key)];
            if (bucket.size() < kKeysPerSlot) {
                bucket.push_back(key);
                filled += bucket.size() == kKeysPerSlot ? 1 : 0;
            }
        }
        TaskInput task;
        task.id = t + 1;
        task.receiver = HostId{0};
        task.options.region_len = cc.ask.copy_size() / kTasks;
        for (std::uint32_t s = 1; s <= senders; ++s) {
            Rng rng = rng_for(seed, 1, t * 64 + s);
            const std::uint64_t n = per_stream + slots * rng.next_below(4);
            KvStream stream;
            stream.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto& bucket = by_slot[i % slots];
                stream.push_back(
                    {bucket[(i / slots) % kKeysPerSlot],
                     static_cast<ask::core::Value>(1 + rng.next_below(9))});
            }
            task.streams.push_back({HostId{s}, std::move(stream)});
        }
        w.tenants.push_back({std::move(task)});
    }
    return w;
}

/**
 * zipf_wordcount: one rack, hosts 1-4 stream word counts to host 0.
 * Four tenants each run a closed loop of 26 WordCount tasks over a
 * Zipf text corpus (short, medium and long words), sharing the switch
 * memory through small regions with shadow-copy swaps on.
 */
Workload
zipf_wordcount(std::uint64_t seed, double scale)
{
    constexpr std::uint32_t kTenants = 4;
    constexpr std::uint32_t kTasksPerTenant = 26;
    constexpr std::uint32_t kSenders = 4;

    Workload w;
    w.name = "zipf_wordcount";
    ClusterConfig& cc = w.config;
    cc.topology = TopologyBuilder().racks(1, kSenders + 1).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.swap_threshold_packets = 64;
    cc.seed = seed;

    const std::uint64_t per_stream = scaled(3072, scale, 1);
    // One fixed corpus (vocabulary and text); the seed picks where in
    // its text the job starts reading. Re-spelling the vocabulary per
    // seed would let the lengths of the few hottest words swing the
    // packet mix from seed to seed.
    ask::workload::TextCorpus corpus(ask::workload::yelp_profile(), 1);
    corpus.generate(1000 * (ask::mix64(seed) % 1024));
    w.tenants.resize(kTenants);
    for (std::uint32_t k = 0; k < kTasksPerTenant; ++k) {
        for (std::uint32_t tenant = 0; tenant < kTenants; ++tenant) {
            TaskInput task;
            task.id = 1 + tenant + kTenants * k;
            task.receiver = HostId{0};
            task.options.region_len = 256;
            for (std::uint32_t s = 1; s <= kSenders; ++s)
                task.streams.push_back({HostId{s}, corpus.generate(per_stream)});
            w.tenants[tenant].push_back(std::move(task));
        }
    }
    return w;
}

/**
 * lossy_tenants: one rack of 4 hosts on lossy cables (1% loss, 0.5%
 * duplication, 5% reorder). 16 tenants each run a closed loop of 40
 * small Zipf-keyed tasks (3 senders, small region), rotating through
 * the sum, max, min and count operators. One burst-loss window and one
 * management-plane outage land while the tasks run. No ToR reboot or
 * host crash: today each breaks some seeds (perfbench/README.md,
 * "Defects found").
 */
Workload
lossy_tenants(std::uint64_t seed, double scale)
{
    constexpr std::uint32_t kHosts = 4;
    constexpr std::uint32_t kTenants = 16;
    constexpr std::uint32_t kTasksPerTenant = 40;
    constexpr ReduceOp kOps[] = {ReduceOp::kAdd, ReduceOp::kMax,
                                 ReduceOp::kMin, ReduceOp::kCount};

    Workload w;
    w.name = "lossy_tenants";
    ClusterConfig& cc = w.config;
    cc.topology = TopologyBuilder().racks(1, kHosts).build();
    cc.ask.max_hosts = kHosts;
    cc.faults = ask::net::FaultSpec::lossy(0.01, 0.005, 0.05);
    cc.seed = seed;

    const std::uint64_t per_stream = scaled(420, scale, 1);
    w.tenants.resize(kTenants);
    for (std::uint32_t k = 0; k < kTasksPerTenant; ++k) {
        for (std::uint32_t tenant = 0; tenant < kTenants; ++tenant) {
            TaskInput task;
            task.id = 1 + tenant + kTenants * k;
            task.receiver = HostId{tenant % kHosts};
            task.options.region_len = 512;
            task.options.op = kOps[tenant % 4];
            ask::workload::ZipfGenerator keys(4096, 1.0,
                                              ask::mix64(seed + task.id));
            const auto tag = static_cast<char>('A' + tenant);
            for (std::uint32_t h = 0; h < kHosts; ++h) {
                if (h == task.receiver.value())
                    continue;
                Rng rng = rng_for(seed, 3, task.id * 8 + h);
                KvStream stream;
                stream.reserve(per_stream);
                for (std::uint64_t i = 0; i < per_stream; ++i) {
                    stream.push_back(
                        {tag + ask::u64_key(keys.sample_rank()),
                         static_cast<ask::core::Value>(
                             1 + rng.next_below(1000))});
                }
                task.streams.push_back({HostId{h}, std::move(stream)});
            }
            w.tenants[tenant].push_back(std::move(task));
        }
    }

    // About the simulated length of the run at this scale.
    const double span_ns = 28.0 * ask::units::kMillisecond * scale;
    w.chaos.burst_loss(static_cast<ask::sim::SimTime>(0.25 * span_ns),
                       200 * ask::units::kMicrosecond, 1, 0.3);
    w.chaos.mgmt_outage(static_cast<ask::sim::SimTime>(0.5 * span_ns),
                        300 * ask::units::kMicrosecond);
    return w;
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names{
        "uniform_fabric", "zipf_wordcount", "lossy_tenants"};
    return names;
}

Workload
make_workload(const std::string& name, std::uint64_t seed, double scale)
{
    Workload w;
    if (name == "uniform_fabric")
        w = uniform_fabric(seed, scale);
    else if (name == "zipf_wordcount")
        w = zipf_wordcount(seed, scale);
    else if (name == "lossy_tenants")
        w = lossy_tenants(seed, scale);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    count_inputs(w);
    return w;
}

ask::core::AggregateMap
reference_fold(const TaskInput& task, ReduceOp op)
{
    ask::core::AggregateMap out;
    for (const StreamSpec& s : task.streams) {
        for (const auto& kv : s.stream) {
            std::uint64_t v = kv.value;
            auto [it, fresh] = out.try_emplace(kv.key, 0);
            switch (op) {
              case ReduceOp::kCount:
                it->second += 1;
                break;
              case ReduceOp::kMax:
                it->second = fresh ? v : std::max(it->second, v);
                break;
              case ReduceOp::kMin:
                it->second = fresh ? v : std::min(it->second, v);
                break;
              case ReduceOp::kAdd:
                it->second += v;
                break;
              case ReduceOp::kFloat:
                throw std::invalid_argument("no workload folds floats");
            }
        }
    }
    return out;
}

}  // namespace perfbench
