/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The whole ASK reproduction runs inside this kernel: hosts, NICs, links,
 * and the PISA switch schedule callbacks at future simulated times, and
 * throughput/latency figures are computed from simulated time. The kernel
 * is single-threaded and fully deterministic: events at the same timestamp
 * fire in scheduling order.
 */
#ifndef ASK_SIM_SIMULATOR_H
#define ASK_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace ask::sim {

/** Simulated time in nanoseconds since simulation start. */
using SimTime = Nanoseconds;

/**
 * Opaque handle to a scheduled event, usable for cancellation. It names
 * a callback slot and that slot's generation, so a handle goes stale the
 * moment its event fires or is cancelled, and never matches the event
 * that later reuses the slot. Handles say nothing about event order.
 */
using EventId = std::uint64_t;

/** Sentinel meaning "no event"; no scheduled event ever has this id. */
constexpr EventId kInvalidEvent = 0;

/**
 * The event-driven simulator.
 *
 * Typical use:
 * @code
 *   Simulator s;
 *   s.schedule_after(10, [&] { ... });
 *   s.run();
 * @endcode
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule `fn` to run at absolute time `t` (>= now). */
    EventId schedule_at(SimTime t, std::function<void()> fn);

    /** Schedule `fn` to run `delay` ns from now (delay >= 0). */
    EventId schedule_after(SimTime delay, std::function<void()> fn);

    /**
     * Cancel a pending event: it is removed from the queue at once.
     * Returns true if the event was still pending (it will not fire);
     * false if it already fired, is running now, or was cancelled.
     */
    bool cancel(EventId id);

    /** Run until the event queue drains. Returns the final time. */
    SimTime run();

    /**
     * Run until simulated time reaches `deadline` (events at exactly
     * `deadline` fire) or the queue drains, whichever is first.
     */
    SimTime run_until(SimTime deadline);

    /**
     * Run every event with time strictly before `end`, including events
     * those events schedule into [now, end). Unlike run_until, now() is
     * NOT advanced to `end` when the queue drains early — the parallel
     * engine runs one lookahead window [T, T+L) per island with this,
     * and an island that sat idle must still accept merged cross-island
     * work stamped anywhere >= its last executed event.
     */
    SimTime run_before(SimTime end);

    /**
     * Time of the earliest pending event, written to `*t`. Returns false
     * when the queue is drained. Cancelled events have already left the
     * queue, so the answer is exact, not a bound.
     */
    bool next_event_time(SimTime* t) const;

    /** Execute at most one event. Returns false if the queue was empty. */
    bool step();

    /** Number of events currently pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Install a hook invoked after every executed event with the current
     * time. Used by obs::Sampler to take periodic samples without ever
     * scheduling events of its own (a self-rescheduling sampler event
     * would keep run() from draining). One hook; pass nullptr to clear.
     */
    void set_after_event_hook(std::function<void(SimTime)> hook)
    {
        after_event_ = std::move(hook);
    }

  private:
    /**
     * One queued event. `seq` is the schedule counter, so ordering by
     * (time, seq) fires equal timestamps in scheduling order. The
     * callback lives in slots_[slot], which keeps the heap entries small.
     */
    struct HeapEntry
    {
        SimTime time;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(HeapEntry) == 24);

    static constexpr std::uint32_t kNotQueued = ~0u;

    /** A callback slot, reused through free_slots_ once its event fires
     *  or is cancelled; `generation` then moves on, staling old ids. */
    struct Slot
    {
        std::function<void()> fn;
        std::uint32_t generation = 1;
        std::uint32_t heap_pos = kNotQueued;
    };

    static bool
    before(const HeapEntry& a, const HeapEntry& b)
    {
        return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }

    bool pop_and_run();
    /** Unlink the entry at heap position `pos` and recycle its slot. */
    void remove_at(std::size_t pos);
    void release_slot(std::uint32_t slot);
    /** Place `e` at the hole `pos`, moving it toward the root. */
    void sift_up(std::size_t pos, HeapEntry e);
    /** Place `e` at the hole `pos`, moving it toward the leaves. */
    void sift_down(std::size_t pos, HeapEntry e);
    void
    place(std::size_t pos, const HeapEntry& e)
    {
        heap_[pos] = e;
        slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
    }

    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::function<void(SimTime)> after_event_;
    std::uint64_t executed_ = 0;
    std::vector<HeapEntry> heap_;  ///< binary min-heap on (time, seq)
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_SIMULATOR_H
