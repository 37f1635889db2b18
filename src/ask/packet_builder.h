/**
 * @file
 * Sender-side packet construction (paper §3.2.2).
 *
 * Tuples are bucketed into per-slot FIFO queues by the key-space
 * partition: short keys into their subspace's slot queue, medium keys
 * into their group's queue, long keys into a bypass queue. Each DATA
 * packet takes the head of every queue, so a key always occupies the
 * same slot (and hence the same AA) in every packet; skewed datasets
 * leave slots blank, which is exactly the packing-efficiency effect
 * Figure 8(b) measures.
 *
 * Short and medium queues hold ready wire slots, not tuples: enqueue
 * classifies, partitions and encodes each tuple once (8 bytes per
 * short tuple, medium_segments slots per medium tuple, the value in the
 * last), and building a packet only copies queue heads. Long keys have
 * no wire slots and stay tuples.
 */
#ifndef ASK_ASK_PACKET_BUILDER_H
#define ASK_ASK_PACKET_BUILDER_H

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ask/config.h"
#include "ask/key_space.h"
#include "ask/types.h"
#include "ask/wire.h"

namespace ask::core {

/** One DATA packet's worth of slots, before framing. */
struct BuiltData
{
    /** All num_aas slots; blanks are zero-filled (they are transmitted). */
    std::vector<WireSlot> slots;
    /** Slot-occupancy bitmap. */
    std::uint64_t bitmap = 0;
    /** Distinct tuples carried (a medium tuple counts once). */
    std::uint32_t valid_tuples = 0;
};

/** Builds the outgoing packet sequence for one task's stream. */
class PacketBuilder
{
  public:
    explicit PacketBuilder(const KeySpace& key_space);

    /** Add one tuple to its queue. */
    void enqueue(const KvTuple& tuple);

    /** Add a whole stream. */
    void enqueue(const KvStream& stream);

    /** True while any DATA-eligible (short/medium) tuples remain. */
    bool has_data() const { return queued_data_ > 0; }

    /** True while long-key tuples remain. */
    bool has_long() const { return !long_queue_.empty(); }

    bool empty() const { return !has_data() && !has_long(); }

    /**
     * Build the next DATA packet: pops at most one tuple per slot queue.
     * std::nullopt when no short/medium tuples remain.
     */
    std::optional<BuiltData> next_data();

    /**
     * Scratch-reusing form of next_data() for the send hot path: fills
     * `out` (reusing its slot vector's capacity, so a caller draining a
     * stream into the same BuiltData allocates nothing per packet) and
     * returns true, or returns false when no short/medium tuples remain.
     * Produces bit-identical packets to next_data().
     */
    bool next_data_into(BuiltData& out);

    /**
     * Pop the next batch of long-key tuples whose serialized size fits
     * `max_payload_bytes`. std::nullopt when none remain.
     */
    std::optional<std::vector<KvTuple>> next_long_batch(
        std::uint32_t max_payload_bytes);

    /**
     * Degraded mode: pop the next batch of tuples of ANY class for the
     * host-only bypass path — the long queue first, then the short
     * slot queues in slot order, then the medium groups. Queued slots
     * decode back to their keys losslessly (keys hold no NUL). Same wire
     * format and size accounting as next_long_batch. std::nullopt when
     * the builder is empty.
     */
    std::optional<std::vector<KvTuple>> next_bypass_batch(
        std::uint32_t max_payload_bytes);

    /** Tuples enqueued so far, by class. */
    std::uint64_t short_enqueued() const { return short_enqueued_; }
    std::uint64_t medium_enqueued() const { return medium_enqueued_; }
    std::uint64_t long_enqueued() const { return long_enqueued_; }

  private:
    /** One queue's region of the slot arena: queued slots [head, end),
     *  free room [end, limit). A short tuple takes one slot, a medium
     *  tuple medium_segments. */
    struct SlotQueue
    {
        std::size_t head = 0;
        std::size_t end = 0;
        std::size_t limit = 0;

        bool empty() const { return head == end; }
        std::size_t queued() const { return end - head; }
    };

    /** queue_of() of a long key. */
    static constexpr std::uint32_t kLongQueue = ~std::uint32_t{0};

    /** Classify and partition a key (one NUL scan, one hash): short
     *  slot i maps to queue i, medium group g to short_aas() + g, a long
     *  key to kLongQueue. Throws StateError on an invalid key. */
    std::uint32_t queue_of(const Key& key) const;
    /** Slots one tuple of queue `q` takes. */
    std::uint32_t width(std::uint32_t q) const;
    /** Give every queue q room for room[q] more slots. When one lacks
     *  it, the arena is laid out afresh: each queue's queued slots, then
     *  its room, queue after queue. */
    void make_room(const std::vector<std::size_t>& room);
    /** Encode `tuple` at the back of queue `q` (which has room), or
     *  append it to the long queue. */
    void push(const KvTuple& tuple, std::uint32_t q);
    /** Key of the tuple whose first slot is `slots[0]` (`count` slots). */
    Key decode_key(const WireSlot* slots, std::uint32_t count) const;

    const KeySpace& key_space_;
    const AskConfig& config_;

    /** Every queued wire slot, one region per queue: a stream enqueued
     *  into an empty builder is one allocation, sorted by queue. */
    std::vector<WireSlot> arena_;
    /** short_aas() short slot queues, then medium_groups group queues. */
    std::vector<SlotQueue> queues_;
    std::deque<KvTuple> long_queue_;
    std::uint64_t queued_data_ = 0;

    std::uint64_t short_enqueued_ = 0;
    std::uint64_t medium_enqueued_ = 0;
    std::uint64_t long_enqueued_ = 0;
};

}  // namespace ask::core

#endif  // ASK_ASK_PACKET_BUILDER_H
