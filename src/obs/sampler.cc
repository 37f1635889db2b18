#include "obs/sampler.h"

#include <utility>

#include "common/logging.h"

namespace ask::obs {

Sampler::Sampler(sim::Simulator& simulator, MetricsRegistry& registry,
                 Nanoseconds interval_ns)
    : simulator_(simulator), registry_(registry), interval_ns_(interval_ns)
{
    ASK_ASSERT(interval_ns > 0, "sampling interval must be positive");
    next_sample_ = simulator_.now() + interval_ns_;
    simulator_.set_after_event_hook(
        [this](sim::SimTime now) { maybe_sample(now); });
}

void
Sampler::add_probe(const std::string& name,
                   std::function<double(sim::SimTime)> fn)
{
    probes_.push_back(Probe{&registry_.series(name), std::move(fn)});
}

void
Sampler::maybe_sample(sim::SimTime now)
{
    if (now < next_sample_)
        return;
    // Catch up in whole periods: long event gaps produce one sample at
    // the first event past each boundary, stamped at the boundary so
    // series stay on the sampling grid.
    while (next_sample_ <= now) {
        sim::SimTime stamp = next_sample_;
        for (Probe& p : probes_)
            p.series->record(stamp, p.fn(stamp));
        next_sample_ += interval_ns_;
    }
}

}  // namespace ask::obs
