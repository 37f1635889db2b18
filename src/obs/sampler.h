/**
 * @file
 * Periodic time-series sampling in *simulated* time.
 *
 * A self-rescheduling sampler event would keep Simulator::run() from
 * ever draining the queue, so the sampler instead piggybacks on the
 * simulator's after-event hook: after each executed event it checks
 * whether a sampling period has elapsed and, if so, evaluates every
 * probe into its TimeSeries. Sampling therefore happens at event
 * granularity — between events no state changes, so nothing is missed
 * — and the run still terminates exactly when the workload does.
 */
#ifndef ASK_OBS_SAMPLER_H
#define ASK_OBS_SAMPLER_H

#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace ask::obs {

/** Samples registered probes every `interval_ns` of simulated time. */
class Sampler
{
  public:
    /**
     * Installs itself as `simulator`'s after-event hook. One sampler
     * per simulator; the sampler must outlive the simulation run.
     */
    Sampler(sim::Simulator& simulator, MetricsRegistry& registry,
            Nanoseconds interval_ns);

    /** Register a probe: `fn` is evaluated at each sample tick with
     *  the tick's grid timestamp and its value appended to the
     *  registry series `name`. Rate probes (goodput) keep their own
     *  previous-value state and divide by the stamp delta. */
    void add_probe(const std::string& name,
                   std::function<double(sim::SimTime)> fn);

    Nanoseconds interval_ns() const { return interval_ns_; }

  private:
    void maybe_sample(sim::SimTime now);

    sim::Simulator& simulator_;
    MetricsRegistry& registry_;
    Nanoseconds interval_ns_;
    sim::SimTime next_sample_ = 0;

    struct Probe
    {
        TimeSeries* series;
        std::function<double(sim::SimTime)> fn;
    };
    std::vector<Probe> probes_;
};

}  // namespace ask::obs

#endif  // ASK_OBS_SAMPLER_H
