#include "ask/packet_builder.h"

#include <algorithm>
#include <string_view>

#include "common/logging.h"

namespace ask::core {

PacketBuilder::PacketBuilder(const KeySpace& key_space)
    : key_space_(key_space),
      config_(key_space.config()),
      queues_(config_.short_aas() + config_.medium_groups)
{
}

std::uint32_t
PacketBuilder::queue_of(const Key& key) const
{
    KeyClass cls = key_space_.classify(key);
    switch (cls) {
      case KeyClass::kShort:
        return key_space_.partition(key, cls);
      case KeyClass::kMedium:
        return config_.short_aas() + key_space_.partition(key, cls);
      case KeyClass::kLong:
        break;
    }
    return kLongQueue;
}

std::uint32_t
PacketBuilder::width(std::uint32_t q) const
{
    return q < config_.short_aas() ? 1 : config_.medium_segments;
}

void
PacketBuilder::make_room(const std::vector<std::size_t>& room)
{
    std::size_t total = 0;
    bool fits = true;
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        fits = fits && queues_[q].end + room[q] <= queues_[q].limit;
        total += queues_[q].queued() + room[q];
    }
    if (fits)
        return;
    std::vector<WireSlot> arena(total);
    std::size_t pos = 0;
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        SlotQueue& sq = queues_[q];
        std::size_t queued = sq.queued();
        std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(sq.head),
                    queued, arena.begin() + static_cast<std::ptrdiff_t>(pos));
        sq = SlotQueue{pos, pos + queued, pos + queued + room[q]};
        pos = sq.limit;
    }
    arena_ = std::move(arena);
}

void
PacketBuilder::push(const KvTuple& tuple, std::uint32_t q)
{
    if (q == kLongQueue) {
        long_queue_.push_back(tuple);
        ++long_enqueued_;
        return;
    }
    // Every segment of the key; a medium key's value rides in the last.
    SlotQueue& sq = queues_[q];
    std::uint32_t w = width(q);
    for (std::uint32_t j = 0; j < w; ++j)
        arena_[sq.end++] = {key_space_.encode_key_segment(tuple.key, j),
                            j + 1 == w ? tuple.value : 0};
    if (q < config_.short_aas())
        ++short_enqueued_;
    else
        ++medium_enqueued_;
    ++queued_data_;
}

void
PacketBuilder::enqueue(const KvTuple& tuple)
{
    std::uint32_t q = queue_of(tuple.key);
    if (q != kLongQueue && queues_[q].end + width(q) > queues_[q].limit) {
        // Double every queue's room, so that tuple-at-a-time enqueues
        // lay the arena out afresh only logarithmically often.
        std::vector<std::size_t> room(queues_.size());
        for (std::uint32_t i = 0; i < queues_.size(); ++i)
            room[i] = queues_[i].queued();
        room[q] += width(q);
        make_room(room);
    }
    push(tuple, q);
}

void
PacketBuilder::enqueue(const KvStream& stream)
{
    // Pass 1 classifies and partitions every tuple and counts slots per
    // queue; pass 2 encodes each tuple into room sized exactly.
    std::vector<std::uint32_t> dest(stream.size());
    std::vector<std::size_t> room(queues_.size(), 0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        dest[i] = queue_of(stream[i].key);
        if (dest[i] != kLongQueue)
            room[dest[i]] += width(dest[i]);
    }
    make_room(room);
    for (std::size_t i = 0; i < stream.size(); ++i)
        push(stream[i], dest[i]);
}

std::optional<BuiltData>
PacketBuilder::next_data()
{
    BuiltData out;
    if (!next_data_into(out))
        return std::nullopt;
    return out;
}

bool
PacketBuilder::next_data_into(BuiltData& out)
{
    if (!has_data())
        return false;

    out.slots.assign(config_.num_aas, WireSlot{});
    out.bitmap = 0;
    out.valid_tuples = 0;

    for (std::uint32_t i = 0; i < config_.short_aas(); ++i) {
        SlotQueue& q = queues_[i];
        if (q.empty())
            continue;
        out.slots[i] = arena_[q.head++];
        out.bitmap |= 1ULL << i;
        ++out.valid_tuples;
        --queued_data_;
    }

    std::uint32_t m = config_.medium_segments;
    for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
        SlotQueue& q = queues_[config_.short_aas() + g];
        if (q.empty())
            continue;
        std::uint32_t mb = config_.medium_base(g);
        std::copy_n(arena_.begin() + static_cast<std::ptrdiff_t>(q.head), m,
                    out.slots.begin() + mb);
        q.head += m;
        out.bitmap |= ((1ULL << m) - 1) << mb;
        ++out.valid_tuples;
        --queued_data_;
    }

    ASK_ASSERT(out.bitmap != 0, "built an empty DATA packet");
    return true;
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_long_batch(std::uint32_t max_payload_bytes)
{
    if (long_queue_.empty())
        return std::nullopt;

    std::vector<KvTuple> batch;
    std::uint32_t bytes = 2;  // tuple-count field
    while (!long_queue_.empty()) {
        const KvTuple& t = long_queue_.front();
        std::uint32_t need = 2 + static_cast<std::uint32_t>(t.key.size()) + 4;
        if (!batch.empty() && bytes + need > max_payload_bytes)
            break;
        bytes += need;
        batch.push_back(t);
        long_queue_.pop_front();
    }
    return batch;
}

Key
PacketBuilder::decode_key(const WireSlot* slots, std::uint32_t count) const
{
    std::uint32_t nb = config_.seg_bytes();
    char buf[sizeof(std::uint32_t) * 64];  // seg_bytes() <= 4, <= 64 AAs
    for (std::uint32_t j = 0; j < count; ++j)
        key_space_.decode_segment_into(slots[j].seg, buf + j * nb);
    return KeySpace::unpad(std::string_view(buf, count * nb));
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_bypass_batch(std::uint32_t max_payload_bytes)
{
    if (empty())
        return std::nullopt;

    std::vector<KvTuple> batch;
    std::uint32_t bytes = 2;  // tuple-count field
    auto fits = [&](const Key& key) {
        std::uint32_t need = 2 + static_cast<std::uint32_t>(key.size()) + 4;
        if (!batch.empty() && bytes + need > max_payload_bytes)
            return false;
        bytes += need;
        return true;
    };

    while (!long_queue_.empty()) {
        if (!fits(long_queue_.front().key))
            return batch;
        batch.push_back(std::move(long_queue_.front()));
        long_queue_.pop_front();
    }
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        SlotQueue& sq = queues_[q];
        std::uint32_t w = width(q);
        while (!sq.empty()) {
            const WireSlot* head = arena_.data() + sq.head;
            Key key = decode_key(head, w);
            if (!fits(key))
                return batch;
            batch.push_back({std::move(key), head[w - 1].value});
            sq.head += w;
            --queued_data_;
        }
    }
    return batch;
}

}  // namespace ask::core
