#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace ask::sim {

EventId
Simulator::schedule_at(SimTime t, std::function<void()> fn)
{
    ASK_ASSERT(t >= now_, "cannot schedule an event in the past");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        ASK_ASSERT(slots_.size() < kNotQueued, "event slot table full");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, HeapEntry{t, next_seq_++, slot});
    return static_cast<EventId>(s.generation) << 32 | slot;
}

EventId
Simulator::schedule_after(SimTime delay, std::function<void()> fn)
{
    ASK_ASSERT(delay >= 0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
}

bool
Simulator::cancel(EventId id)
{
    std::uint64_t slot = id & 0xFFFFFFFFu;
    if (slot >= slots_.size())
        return false;
    const Slot& s = slots_[slot];
    if (s.generation != id >> 32 || s.heap_pos == kNotQueued)
        return false;
    remove_at(s.heap_pos);
    return true;
}

void
Simulator::release_slot(std::uint32_t slot)
{
    Slot& s = slots_[slot];
    s.fn = nullptr;
    s.heap_pos = kNotQueued;
    // Generation 0 is skipped so that no live handle is ever 0.
    if (++s.generation == 0)
        s.generation = 1;
    free_slots_.push_back(slot);
}

void
Simulator::remove_at(std::size_t pos)
{
    std::uint32_t slot = heap_[pos].slot;
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
        if (pos > 0 && before(last, heap_[(pos - 1) / 2]))
            sift_up(pos, last);
        else
            sift_down(pos, last);
    }
    release_slot(slot);
}

void
Simulator::sift_up(std::size_t pos, HeapEntry e)
{
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
Simulator::sift_down(std::size_t pos, HeapEntry e)
{
    std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], e))
            break;
        place(pos, heap_[child]);
        pos = child;
    }
    place(pos, e);
}

bool
Simulator::pop_and_run()
{
    if (heap_.empty())
        return false;
    const HeapEntry top = heap_.front();
    ASK_ASSERT(top.time >= now_, "event queue went backwards");
    // Take the callback and free the slot before running it: the
    // handler may schedule (growing slots_), and its own id is stale
    // from here on, so cancelling it from inside returns false.
    std::function<void()> fn = std::move(slots_[top.slot].fn);
    remove_at(0);
    now_ = top.time;
    ++executed_;
    fn();
    if (after_event_)
        after_event_(now_);
    return true;
}

SimTime
Simulator::run()
{
    while (pop_and_run()) {
    }
    return now_;
}

SimTime
Simulator::run_until(SimTime deadline)
{
    while (!heap_.empty() && heap_.front().time <= deadline)
        pop_and_run();
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

SimTime
Simulator::run_before(SimTime end)
{
    while (!heap_.empty() && heap_.front().time < end)
        pop_and_run();
    return now_;
}

bool
Simulator::next_event_time(SimTime* t) const
{
    if (heap_.empty())
        return false;
    *t = heap_.front().time;
    return true;
}

bool
Simulator::step()
{
    return pop_and_run();
}

}  // namespace ask::sim
