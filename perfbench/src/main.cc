/**
 * @file
 * ask_perfbench: runs one benchmark workload against the public
 * AskCluster API in this process, single-threaded, and prints one JSON
 * document of raw per-repetition measurements on stdout. perfbench/run.py
 * builds this binary, turns the repetitions into medians and checks them.
 *
 *   ask_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--scale X] [--corrupt-reference] [--spans FILE]
 *
 * A repetition builds a fresh cluster from the workload, submits every
 * tenant's first task (set-up), drains the simulator (the timed part)
 * and checks each delivered result against an independent fold of the
 * task's inputs. --trace 1 alternates plain repetitions with traced
 * ones, which time calls into each layer from
 * here: a forwarding switch program around every AskSwitchProgram, the
 * cluster's sampler, a standalone PacketBuilder pass over the
 * workload's streams and a replay of every WAL.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "ask/fabric.h"
#include "ask/packet_builder.h"
#include "ask/wire.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ask::obs::Json;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    bool corrupt_reference = false;
    std::string spans_path;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "ask_perfbench: " << why
              << "\nusage: ask_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--corrupt-reference] "
                 "[--spans FILE]\n";
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (flag == "--scale")
                a.scale = std::stod(value());
            else if (flag == "--corrupt-reference")
                a.corrupt_reference = true;
            else if (flag == "--spans")
                a.spans_path = value();
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0) || !(a.scale > 0.0))
        usage("--seconds and --scale must be positive");
    return a;
}

/**
 * Forwarding decorator installed on every switch in place of its
 * AskSwitchProgram. It always notes the simulated time of the last
 * FIN_ACK it forwards (the moment the last sender is done, read from
 * outside the program); when `timed`, it also accumulates the host time
 * spent inside the wrapped program.
 */
class SwitchProbe final : public ask::pisa::SwitchProgram
{
  public:
    SwitchProbe(ask::pisa::SwitchProgram& inner, ask::sim::Simulator& sim,
                bool timed)
        : inner_(inner), sim_(sim), timed_(timed)
    {
    }

    void
    process(ask::net::Packet pkt, ask::pisa::Emitter& emit) override
    {
        auto hdr = ask::core::parse_header(pkt.data);
        if (hdr && hdr->type == ask::core::PacketType::kFinAck)
            last_fin_ack_ = sim_.now();
        if (!timed_) {
            inner_.process(std::move(pkt), emit);
            return;
        }
        auto t0 = Clock::now();
        inner_.process(std::move(pkt), emit);
        busy_ += Clock::now() - t0;
    }

    std::string name() const override { return inner_.name(); }

    ask::sim::SimTime last_fin_ack() const { return last_fin_ack_; }
    double busy_s() const
    {
        return std::chrono::duration<double>(busy_).count();
    }

  private:
    ask::pisa::SwitchProgram& inner_;
    ask::sim::Simulator& sim_;
    bool timed_;
    ask::sim::SimTime last_fin_ack_ = 0;
    Clock::duration busy_{};
};

/** A span on the host clock (seconds since start, "host_s") or the
 *  simulated clock (ns, "sim_ns"), kept in memory and written out when
 *  the benchmark ends. */
struct Span
{
    std::string name;
    const char* clock = "host_s";
    std::int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
};

class SpanLog
{
  public:
    std::int64_t
    add(std::string name, const char* clock, std::int64_t parent,
        double start, double end)
    {
        spans_.push_back({std::move(name), clock, parent, start, end});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    double host_now() const { return seconds_since(origin_); }

    void
    write(const std::string& path) const
    {
        Json arr = Json::array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            Json s = Json::object();
            s.set("id", static_cast<std::uint64_t>(i));
            s.set("name", spans_[i].name);
            s.set("clock", spans_[i].clock);
            s.set("parent", spans_[i].parent);
            s.set("start", spans_[i].start);
            s.set("end", spans_[i].end);
            arr.push_back(std::move(s));
        }
        std::ofstream out(path);
        out << arr.dump() << "\n";
        if (!out)
            std::cerr << "ask_perfbench: cannot write spans to " << path
                      << "\n";
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Outcome of one task as the benchmark saw it. */
struct TaskRecord
{
    bool reported = false;
    ask::core::TaskStatus status = ask::core::TaskStatus::kOk;
    std::string detail;
    ask::sim::SimTime submitted = 0;
    ask::sim::SimTime done = 0;
    ask::core::AggregateMap result;
};

struct Reference
{
    /** Indexed by task id. */
    std::vector<ask::core::AggregateMap> results;
};

Reference
build_reference(const Workload& w, bool corrupt)
{
    Reference ref;
    ref.results.resize(w.tasks + 1);
    for (const auto& tenant : w.tenants) {
        for (const auto& t : tenant) {
            ask::core::ReduceOp op = t.options.op.value_or(w.config.ask.op);
            ref.results.at(t.id) = reference_fold(t, op);
        }
    }
    if (corrupt) {
        auto& first = ref.results.at(w.tenants.front().front().id);
        if (!first.empty())
            first.begin()->second += 1;
    }
    return ref;
}

/** One line on how a delivered result differs from the reference. */
std::string
describe_mismatch(const ask::core::AggregateMap& got,
                  const ask::core::AggregateMap& want)
{
    std::uint64_t wrong = 0;
    std::string example;
    for (const auto& [key, value] : want) {
        auto it = got.find(key);
        if (it != got.end() && it->second == value)
            continue;
        if (wrong++ == 0) {
            example = "e.g. a key of " + std::to_string(key.size()) +
                      " bytes: " +
                      (it == got.end() ? std::string("missing")
                                       : std::to_string(it->second)) +
                      ", reference " + std::to_string(value);
        }
    }
    for (const auto& kv : got)
        wrong += want.count(kv.first) ? 0 : 1;
    return "result differs from the reference fold on " +
           std::to_string(wrong) + " of " + std::to_string(want.size()) +
           " keys (" + example + ")";
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double>& sorted, double q)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double
series_mean(ask::obs::MetricsRegistry& reg, const std::vector<std::string>& names)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& name : names) {
        const auto& s = reg.series(name);
        for (double v : s.values)
            sum += v;
        n += s.values.size();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/** Every WAL the cluster writes: one per host, one per switch's
 *  controller journal. */
std::vector<std::string>
wal_names(ask::core::AskCluster& c)
{
    std::vector<std::string> names;
    for (std::uint32_t h = 0; h < c.num_hosts(); ++h)
        names.push_back("host" + std::to_string(h));
    for (std::uint32_t s = 0; s < c.num_switches(); ++s)
        names.push_back(ask::core::controller_wal_name(ask::SwitchId{s}));
    return names;
}

/** Time PacketBuilder::enqueue plus next_data_into over the workload's
 *  own streams, outside any cluster. */
void
time_builder(const Workload& w, Json& out)
{
    const ask::core::KeySpace ks(w.config.ask);
    ask::core::BuiltData built;
    std::uint64_t packets = 0;
    std::uint64_t packed = 0;
    Clock::duration busy{};
    for (const auto& tenant : w.tenants) {
        for (const auto& t : tenant) {
            for (const auto& s : t.streams) {
                ask::core::PacketBuilder b(ks);
                auto t0 = Clock::now();
                b.enqueue(s.stream);
                while (b.next_data_into(built)) {
                    ++packets;
                    packed += built.valid_tuples;
                }
                busy += Clock::now() - t0;
            }
        }
    }
    double busy_ns = std::chrono::duration<double, std::nano>(busy).count();
    out.set("builder.ns_per_packet",
            packets ? busy_ns / static_cast<double>(packets) : 0.0);
    out.set("builder.packets", packets);
    out.set("builder.tuples_per_packet", ratio(packed, packets));
}

/** Result of one repetition. */
struct Rep
{
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    Json exact = Json::object();  ///< values that repeat exactly
    /** Host-time layer numbers, and the counts they are divided by. */
    Json host = Json::object();
};

/**
 * One repetition: set-up (cluster construction, chaos arming and the
 * initial submits), the timed drain, then the checks. `run == false`
 * stops after set-up (set-up-only repetitions).
 */
Rep
run_rep(const Workload& w, const Reference& ref, bool traced, bool run,
        SpanLog* spans)
{
    using namespace ask;
    Rep rep;
    rep.traced = traced;
    double rep_start = spans ? spans->host_now() : 0.0;
    std::int64_t root_span = -1;

    std::vector<std::vector<TaskInput>> tenants = w.tenants;  // untimed copy
    std::vector<TaskRecord> records(w.tasks + 1);
    std::vector<std::size_t> next(tenants.size(), 0);

    // Declared before the cluster: its switches point at the probes.
    std::vector<std::unique_ptr<SwitchProbe>> probes;
    auto t_setup = Clock::now();
    auto cluster = std::make_unique<core::AskCluster>(w.config);
    double construct_s = seconds_since(t_setup);

    for (std::uint32_t s = 0; s < cluster->num_switches(); ++s) {
        probes.push_back(std::make_unique<SwitchProbe>(
            cluster->program(SwitchId{s}), cluster->simulator(), traced));
        cluster->pisa_switch(SwitchId{s}).install(probes.back().get());
    }
    if (traced)
        cluster->enable_sampling(100 * units::kMicrosecond);

    core::AskCluster& c = *cluster;
    std::function<void(std::size_t)> submit_next = [&](std::size_t tenant) {
        if (next[tenant] >= tenants[tenant].size())
            return;
        TaskInput& t = tenants[tenant][next[tenant]++];
        TaskRecord& r = records.at(t.id);
        r.submitted = c.simulator().now();
        c.submit_task(
            t.id, t.receiver, std::move(t.streams), t.options,
            [&, tenant, id = t.id](core::AggregateMap m, core::TaskReport rp) {
                TaskRecord& rec = records[id];
                rec.reported = true;
                rec.status = rp.status;
                rec.detail = rp.detail;
                rec.done = c.simulator().now();
                rec.result = std::move(m);
                // A closed-loop client submits its next task once the
                // previous one has reported.
                c.simulator().schedule_after(
                    0, [&submit_next, tenant] { submit_next(tenant); });
            });
    };

    auto t_submit = Clock::now();
    if (!w.chaos.empty())
        c.arm_chaos(w.chaos);
    for (std::size_t tenant = 0; tenant < tenants.size(); ++tenant)
        submit_next(tenant);
    double submit_s = seconds_since(t_submit);
    rep.setup_s = construct_s + submit_s;
    if (spans) {
        double setup_end = spans->host_now();
        root_span = spans->add(w.name, "host_s", -1, rep_start, setup_end);
        std::int64_t setup = spans->add("setup", "host_s", root_span,
                                        setup_end - rep.setup_s, setup_end);
        spans->add("construct", "host_s", setup, setup_end - rep.setup_s,
                   setup_end - submit_s);
        spans->add("submit", "host_s", setup, setup_end - submit_s, setup_end);
    }
    if (!run)
        return rep;

    auto t_run = Clock::now();
    c.run();
    rep.wall_s = seconds_since(t_run);
    double run_end = spans ? spans->host_now() : 0.0;

    // ---- correctness ------------------------------------------------------
    std::vector<double> latencies_ms;
    sim::SimTime last_done = 0;
    for (std::uint64_t id = 1; id <= w.tasks; ++id) {
        const TaskRecord& r = records[id];
        ++rep.attempted;
        std::string why;
        if (!r.reported)
            why = "never reported";
        else if (r.status != core::TaskStatus::kOk)
            why = std::string("status ") + core::task_status_name(r.status) +
                  ": " + r.detail;
        else if (r.result != ref.results[id])
            why = describe_mismatch(r.result, ref.results[id]);
        if (!why.empty()) {
            ++rep.failed;
            rep.failures.push_back("task " + std::to_string(id) + ": " + why);
        }
        if (r.reported) {
            latencies_ms.push_back(static_cast<double>(r.done - r.submitted) /
                                   units::kMillisecond);
            last_done = std::max(last_done, r.done);
        }
    }

    // ---- deterministic metrics -------------------------------------------
    Json& x = rep.exact;
    sim::SimTime senders_done = 0;
    for (const auto& p : probes)
        senders_done = std::max(senders_done, p->last_fin_ack());
    const net::NetworkStats& net = c.network().stats();
    const core::HostStats host = c.total_host_stats();
    const core::SwitchAggStats sw = c.total_switch_stats();
    const core::ChaosStats chaos = c.chaos_stats();
    std::uint64_t passes = 0;
    for (std::uint32_t s = 0; s < c.num_switches(); ++s)
        passes += c.pisa_switch(SwitchId{s}).stats().passes;
    std::uint64_t sent_packets = host.data_packets_sent + host.long_packets_sent;

    std::sort(latencies_ms.begin(), latencies_ms.end());
    x.set("sim_makv_per_s",
          senders_done > 0 ? static_cast<double>(w.tuples) * 1e3 /
                                 static_cast<double>(senders_done)
                           : 0.0);
    x.set("jct_ms", static_cast<double>(last_done) / units::kMillisecond);
    x.set("receiver_pkt_ratio", ratio(host.packets_received, sent_packets));
    x.set("tasks.latency_samples", static_cast<std::uint64_t>(latencies_ms.size()));
    if (!latencies_ms.empty()) {
        x.set("task_latency_p50_ms", percentile(latencies_ms, 0.5));
        x.set("task_latency_p90_ms", percentile(latencies_ms, 0.9));
    }

    x.set("sim.events", c.simulator().executed());
    x.set("net.packets_sent", net.packets_sent);
    x.set("net.packets_delivered", net.packets_delivered);
    x.set("net.packets_dropped", net.packets_dropped);
    x.set("net.drop_ratio", ratio(net.packets_dropped, net.packets_sent));
    x.set("net.bytes_sent", net.bytes_sent);
    const obs::LogHistogram& rtt = c.metrics().histogram("host.rtt_ns");
    x.set("net.rtt_p50_us", static_cast<double>(rtt.quantile(0.5)) / 1e3);
    x.set("net.rtt_p99_us", static_cast<double>(rtt.quantile(0.99)) / 1e3);

    x.set("switch.passes", passes);
    x.set("switch.absorb_ratio", ratio(sw.tuples_aggregated, sw.tuples_in));
    x.set("switch.tuples_in", sw.tuples_in);
    x.set("switch.tuples_collided", sw.tuples_collided);
    x.set("switch.packets_acked", sw.packets_acked);
    x.set("switch.packets_forwarded", sw.packets_forwarded);
    x.set("switch.residual_forwarded", sw.residual_forwarded);
    x.set("switch.duplicates", sw.duplicates);
    x.set("switch.stale_dropped", sw.stale_dropped);
    x.set("switch.swaps", sw.swaps);
    x.set("switch.long_packets", sw.long_packets);

    x.set("host.data_packets_sent", host.data_packets_sent);
    x.set("host.tuples_per_packet", ratio(host.tuples_sent, sent_packets));
    x.set("host.long_packets_sent", host.long_packets_sent);
    x.set("host.retransmissions", host.retransmissions);
    x.set("host.retransmit_ratio", ratio(host.retransmissions, sent_packets));
    x.set("host.tuples_aggregated_locally", host.tuples_aggregated_locally);
    x.set("host.duplicates_received", host.duplicates_received);
    x.set("host.swap_requests", host.swap_requests);
    x.set("host.fetch_tuples", host.fetch_tuples);
    x.set("host.packets_received", host.packets_received);

    const std::vector<std::string> wals = wal_names(c);
    std::uint64_t wal_bytes = 0;
    for (const auto& name : wals)
        wal_bytes += c.wal_store().wal(name).size_bytes();
    x.set("wal.appends", chaos.wal_appends);
    x.set("wal.bytes", wal_bytes);
    x.set("wal.bytes_per_tuple", ratio(wal_bytes, w.tuples));

    x.set("mgmt.rpcs", chaos.mgmt_rpcs);
    x.set("mgmt.retries", chaos.mgmt_retries);
    x.set("mgmt.giveups", chaos.mgmt_giveups);
    x.set("recovery.channels_fenced", chaos.channels_fenced);
    x.set("recovery.regions_reinstalled", chaos.regions_reinstalled);
    x.set("recovery.tasks_reset", chaos.tasks_reset);
    x.set("recovery.streams_replayed", chaos.streams_replayed);
    x.set("recovery.bypass_conversions", chaos.bypass_conversions);

    rep.host.set("packets_delivered", net.packets_delivered);
    rep.host.set("events", c.simulator().executed());
    if (!traced)
        return rep;

    // ---- traced-only layer numbers ----------------------------------------
    double process_s = 0.0;
    for (const auto& p : probes)
        process_s += p->busy_s();
    rep.host.set("switch.process_s", process_s);

    std::vector<std::string> occupancy;
    for (std::uint32_t h = 0; h < c.num_hosts(); ++h) {
        for (std::uint32_t ch = 0; ch < c.daemon(HostId{h}).num_channels(); ++ch)
            occupancy.push_back("occupancy.h" + std::to_string(h) + ".c" +
                                std::to_string(ch));
    }
    rep.host.set("host.core_occupancy_mean",
                  series_mean(c.metrics(), occupancy));
    rep.host.set("host.cwnd_mean", series_mean(c.metrics(), {"cwnd.mean"}));

    auto t_replay = Clock::now();
    std::uint64_t replayed = 0;
    for (const auto& name : wals)
        replayed += c.wal_store().wal(name).replay().size();
    rep.host.set("wal.replay_s", seconds_since(t_replay));
    rep.host.set("wal.records_replayed", replayed);

    time_builder(w, rep.host);

    if (spans) {
        std::int64_t run = spans->add("run", "host_s", root_span,
                                      run_end - rep.wall_s, run_end);
        for (std::uint64_t id = 1; id <= w.tasks; ++id) {
            const TaskRecord& r = records[id];
            spans->add("task " + std::to_string(id), "sim_ns", run,
                       static_cast<double>(r.submitted),
                       static_cast<double>(r.reported ? r.done : -1));
        }
    }
    return rep;
}

Json
rep_json(const Rep& r)
{
    Json j = Json::object();
    j.set("traced", r.traced);
    j.set("setup_s", r.setup_s);
    j.set("wall_s", r.wall_s);
    j.set("attempted", r.attempted);
    j.set("failed", r.failed);
    Json failures = Json::array();
    for (const auto& f : r.failures)
        failures.push_back(f);
    j.set("failures", std::move(failures));
    j.set("exact", r.exact);
    j.set("host", r.host);
    return j;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Run full repetitions for about `budget_s` seconds: at least
 * `min_reps`, and none started that would likely overrun the budget.
 * With `traced`, plain and traced repetitions alternate so that drift
 * in the machine's speed falls on both alike.
 */
void
run_phase(const Workload& w, const Reference& ref, bool traced,
          double budget_s, std::size_t min_reps, SpanLog* spans,
          std::vector<Rep>& out)
{
    auto t0 = Clock::now();
    double longest = 0.0;
    for (std::size_t n = 0;; ++n) {
        double used = seconds_since(t0);
        if (n >= min_reps && used + longest > budget_s)
            break;
        bool this_traced = traced && n % 2 == 1;
        auto t_rep = Clock::now();
        out.push_back(run_rep(w, ref, this_traced, true,
                              this_traced ? spans : nullptr));
        longest = std::max(longest, seconds_since(t_rep));
    }
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args args = parse_args(argc, argv);

    Workload w;
    try {
        w = make_workload(args.workload, args.seed, args.scale);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
    Reference ref = build_reference(w, args.corrupt_reference);
    SpanLog spans;

    // Set-up takes milliseconds, so it is measured on repetitions of its
    // own (about a tenth of the budget), after two unmeasured ones that
    // warm code and allocator. run.py reports the median.
    std::vector<double> setup_only;
    {
        for (int i = 0; i < 2; ++i)
            run_rep(w, ref, false, false, nullptr);
        auto t0 = Clock::now();
        while (setup_only.size() < 10 ||
               (setup_only.size() < 60 &&
                seconds_since(t0) < 0.1 * args.seconds))
            setup_only.push_back(run_rep(w, ref, false, false, nullptr).setup_s);
    }

    std::vector<Rep> reps;
    run_phase(w, ref, args.trace, 0.9 * args.seconds, args.trace ? 6 : 3,
              &spans, reps);
    double rss = peak_rss_mb();

    Json out = Json::object();
    out.set("workload", w.name);
    out.set("seed", args.seed);
    out.set("scale", args.scale);
    out.set("tuples", w.tuples);
    out.set("tasks", w.tasks);
    out.set("peak_rss_mb", rss);
    Json setups = Json::array();
    for (double s : setup_only)
        setups.push_back(s);
    out.set("setup_only_s", std::move(setups));
    Json reps_json = Json::array();
    for (const auto& r : reps)
        reps_json.push_back(rep_json(r));
    out.set("reps", std::move(reps_json));
    std::cout << out.dump() << std::endl;

    if (args.trace && !args.spans_path.empty())
        spans.write(args.spans_path);
    return 0;
}
