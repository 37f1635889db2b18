#include "ask/wal.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace ask::core {

namespace {

/** Frame header: payload length + folded payload-hash check word. */
constexpr std::size_t kFrameHeader = 8;

/** Little-endian stores into a buffer already sized for them. */
char*
store_u32(char* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    return p + 4;
}

char*
store_u64(char* p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    return p + 8;
}

/** Bounds-checked little-endian reader over a payload slice. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    bool
    u8(std::uint8_t& v)
    {
        if (off_ + 1 > bytes_.size())
            return false;
        v = static_cast<std::uint8_t>(bytes_[off_++]);
        return true;
    }

    bool
    u32(std::uint32_t& v)
    {
        if (off_ + 4 > bytes_.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[off_ + i]))
                 << (8 * i);
        off_ += 4;
        return true;
    }

    bool
    u64(std::uint64_t& v)
    {
        if (off_ + 8 > bytes_.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[off_ + i]))
                 << (8 * i);
        off_ += 8;
        return true;
    }

    bool
    str(std::string& v, std::size_t n)
    {
        if (off_ + n > bytes_.size())
            return false;
        v.assign(bytes_.substr(off_, n));
        off_ += n;
        return true;
    }

    bool done() const { return off_ == bytes_.size(); }

  private:
    std::string_view bytes_;
    std::size_t off_ = 0;
};

/** Key and value of a journaled kv, from either container. */
std::pair<const Key&, std::uint64_t>
kv_of(const std::pair<std::string, std::uint64_t>& kv)
{
    return {kv.first, kv.second};
}

std::pair<const Key&, std::uint64_t>
kv_of(const KvTuple& t)
{
    return {t.key, t.value};
}

/** Encoded payload size: kind byte, seven u32 fields (the last is the
 *  kv count), then per kv a u32 key length, the key and a u64 value. */
template <typename Kvs>
std::size_t
payload_size(const Kvs& kvs)
{
    std::size_t n = 1 + 7 * 4;
    for (const auto& kv : kvs)
        n += 4 + kv_of(kv).first.size() + 8;
    return n;
}

/** Encode `r`'s fixed fields and `kvs` at `p`, which has
 *  payload_size(kvs) bytes. */
template <typename Kvs>
void
encode_payload(char* p, const WalRecord& r, const Kvs& kvs)
{
    *p++ = static_cast<char>(r.kind);
    p = store_u32(p, r.task);
    p = store_u32(p, r.channel);
    p = store_u32(p, r.seq);
    p = store_u32(p, r.arg0);
    p = store_u32(p, r.arg1);
    p = store_u32(p, r.arg2);
    p = store_u32(p, static_cast<std::uint32_t>(kvs.size()));
    for (const auto& kv : kvs) {
        auto [key, value] = kv_of(kv);
        p = store_u32(p, static_cast<std::uint32_t>(key.size()));
        std::memcpy(p, key.data(), key.size());
        p = store_u64(p + key.size(), value);
    }
}

std::string
encode_record(const WalRecord& r)
{
    std::string payload(payload_size(r.kvs), '\0');
    encode_payload(payload.data(), r, r.kvs);
    return payload;
}

bool
decode_record(std::string_view payload, WalRecord& out)
{
    Reader rd(payload);
    std::uint8_t kind = 0;
    std::uint32_t nkvs = 0;
    if (!rd.u8(kind) || !rd.u32(out.task) || !rd.u32(out.channel) ||
        !rd.u32(out.seq) || !rd.u32(out.arg0) || !rd.u32(out.arg1) ||
        !rd.u32(out.arg2) || !rd.u32(nkvs)) {
        return false;
    }
    if (kind < static_cast<std::uint8_t>(WalRecordKind::kAlloc) ||
        kind > static_cast<std::uint8_t>(WalRecordKind::kHostRecovered)) {
        return false;
    }
    out.kind = static_cast<WalRecordKind>(kind);
    out.kvs.clear();
    out.kvs.reserve(nkvs);
    for (std::uint32_t i = 0; i < nkvs; ++i) {
        std::uint32_t klen = 0;
        std::string key;
        std::uint64_t value = 0;
        if (!rd.u32(klen) || !rd.str(key, klen) || !rd.u64(value))
            return false;
        out.kvs.emplace_back(std::move(key), value);
    }
    return rd.done();
}

/** A named scalar in a record's kvs (0 when absent). */
std::uint64_t
kv_scalar(const WalRecord& r, std::string_view name)
{
    for (const auto& [key, value] : r.kvs)
        if (key == name)
            return value;
    return 0;
}

/** Like kv_scalar, but distinguishes "absent" from an explicit 0 —
 *  needed for fields (like the ReduceOp id, where 0 == kAdd) whose
 *  absence means "pre-upgrade log, use the caller's default". */
std::uint64_t
kv_scalar_or(const WalRecord& r, std::string_view name,
             std::uint64_t fallback)
{
    for (const auto& [key, value] : r.kvs)
        if (key == name)
            return value;
    return fallback;
}

/** apply_rx_record over either kvs container (named scalars of a start
 *  or reset always travel in `r.kvs`). */
template <typename Kvs>
void
apply_rx(WalRxTaskState& t, const WalRecord& r, const Kvs& kvs)
{
    // Combine-only: journaled tuples were lifted at the sender, and
    // fetched registers hold lifted partials.
    auto combine = [&t, &kvs] {
        for (const auto& kv : kvs) {
            auto [key, value] = kv_of(kv);
            accumulate(t.local, key, value, t.op);
        }
        return static_cast<std::uint64_t>(kvs.size());
    };
    switch (r.kind) {
      case WalRecordKind::kRxTaskStart: {
        auto op = static_cast<ReduceOp>(
            kv_scalar_or(r, "op", static_cast<std::uint64_t>(t.op)));
        t = WalRxTaskState{};
        t.expected_senders = r.arg0;
        t.swaps_disabled = r.arg1 != 0;
        t.op = op;
        t.liveness_ns = kv_scalar(r, "liveness_ns");
        t.start_time = kv_scalar(r, "start_time");
        break;
      }
      case WalRecordKind::kRxData:
        t.tuples_aggregated_locally += combine();
        ++t.packets_received;
        break;
      case WalRecordKind::kRxFin:
        t.fins.insert(r.channel);
        break;
      case WalRecordKind::kRxSwapCommit:
        t.tuples_fetched_from_switch += combine();
        t.committed_epoch = r.seq;
        ++t.swaps;
        break;
      case WalRecordKind::kRxReset:
        // The registers were wiped and the senders replay from scratch;
        // the task's parameters, its swap policy included, stay.
        t.local.clear();
        t.fins.clear();
        t.committed_epoch = 0;
        t.tuples_aggregated_locally = 0;
        t.tuples_fetched_from_switch = 0;
        t.packets_received = 0;
        t.swaps = 0;
        break;
      default:
        ASK_ASSERT(false, "not a receive-task record: ",
                   wal_record_kind_name(r.kind));
    }
}

}  // namespace

const char*
wal_record_kind_name(WalRecordKind kind)
{
    switch (kind) {
      case WalRecordKind::kAlloc:
        return "alloc";
      case WalRecordKind::kRelease:
        return "release";
      case WalRecordKind::kSendSubmit:
        return "send-submit";
      case WalRecordKind::kSendForget:
        return "send-forget";
      case WalRecordKind::kSeqCheckpoint:
        return "seq-checkpoint";
      case WalRecordKind::kRxTaskStart:
        return "rx-task-start";
      case WalRecordKind::kRxData:
        return "rx-data";
      case WalRecordKind::kRxFin:
        return "rx-fin";
      case WalRecordKind::kRxSwapCommit:
        return "rx-swap-commit";
      case WalRecordKind::kRxReset:
        return "rx-reset";
      case WalRecordKind::kRxTaskDone:
        return "rx-task-done";
      case WalRecordKind::kHostRecovered:
        return "host-recovered";
    }
    return "unknown";
}

Wal::Wal(std::string name) : name_(std::move(name))
{
    const char* p = std::getenv("ASK_WAL_PARANOID");
    paranoid_ = p != nullptr && *p != '\0' && *p != '0';
}

template <typename Kvs>
void
Wal::append_framed(const WalRecord& record, const Kvs& kvs)
{
    std::size_t len = payload_size(kvs);
    std::size_t off = size_;
    std::size_t need = off + kFrameHeader + len;
    if (need > capacity_) {
        // Geometric growth into uninitialised storage: only the bytes
        // already framed are copied, nothing is zero-filled.
        std::size_t cap = std::max(need, 2 * capacity_);
        auto grown = std::make_unique_for_overwrite<char[]>(cap);
        if (off > 0)
            std::memcpy(grown.get(), bytes_.get(), off);
        bytes_ = std::move(grown);
        capacity_ = cap;
    }
    // Frame in place: encode the payload behind the header slot, hash
    // it where it lies, then patch the header.
    char* frame = bytes_.get() + off;
    encode_payload(frame + kFrameHeader, record, kvs);
    std::uint64_t h = fnv1a64(std::string_view(frame + kFrameHeader, len));
    store_u32(frame, static_cast<std::uint32_t>(len));
    store_u32(frame + 4, static_cast<std::uint32_t>(mix64(h)));
    size_ = need;
    record_hashes_.push_back(h);
    record_offsets_.push_back(off);
    digest_ = mix64(digest_ ^ h);
    if (append_counter_ != nullptr)
        ++*append_counter_;
    if (paranoid_)
        ASK_ASSERT(verify(), "WAL ", name_, " failed paranoid verify after ",
                   wal_record_kind_name(record.kind));
}

void
Wal::append(const WalRecord& record)
{
    append_framed(record, record.kvs);
}

void
Wal::append(const WalRecord& header, const KvStream& stream)
{
    ASK_ASSERT(header.kvs.empty(), "stream append with header kvs");
    append_framed(header, stream);
}

std::vector<WalRecord>
Wal::replay(WalReplayStatus* status) const
{
    WalReplayStatus local;
    WalReplayStatus& st = status != nullptr ? *status : local;
    st = WalReplayStatus{};
    std::vector<WalRecord> records;

    std::size_t off = 0;
    auto corrupt_at = [&](const char* what) {
        st.corrupt = true;
        if (status == nullptr)
            fail_state("WAL ", name_, ": corrupt record at byte ", off, " (",
                       what, ")");
    };

    std::string_view bytes = image();
    while (off < bytes.size()) {
        if (off + kFrameHeader > bytes.size()) {
            st.torn_tail = true;  // crash mid-header
            break;
        }
        Reader hdr(bytes.substr(off, kFrameHeader));
        std::uint32_t len = 0;
        std::uint32_t check = 0;
        hdr.u32(len);
        hdr.u32(check);
        if (off + kFrameHeader + len > bytes.size()) {
            st.torn_tail = true;  // crash mid-payload
            break;
        }
        std::string_view payload = bytes.substr(off + kFrameHeader, len);
        std::uint64_t h = fnv1a64(payload);
        std::size_t index = records.size();
        if (static_cast<std::uint32_t>(mix64(h)) != check ||
            index >= record_hashes_.size() || h != record_hashes_[index]) {
            corrupt_at("log-segment hash mismatch");
            break;
        }
        WalRecord r;
        if (!decode_record(payload, r)) {
            corrupt_at("malformed payload");
            break;
        }
        records.push_back(std::move(r));
        off += kFrameHeader + len;
        st.valid_bytes = off;
    }

    st.records = records.size();
    // A truncation that happens to land on a frame boundary still shows
    // up: the verified records are a proper prefix of the segment list.
    if (!st.corrupt && st.records < record_hashes_.size())
        st.torn_tail = true;
    return records;
}

WalRecord
Wal::read(std::size_t index) const
{
    if (index >= record_hashes_.size())
        fail_state("WAL ", name_, ": no record ", index, " (",
                   record_hashes_.size(), " appended)");
    std::size_t off = record_offsets_[index];
    auto damaged = [&](const char* what) {
        fail_state("WAL ", name_, ": record ", index, " at byte ", off,
                   " unreadable (", what, ")");
    };
    std::string_view bytes = image();
    if (off + kFrameHeader > bytes.size())
        damaged("torn frame header");
    Reader hdr(bytes.substr(off, kFrameHeader));
    std::uint32_t len = 0;
    std::uint32_t check = 0;
    hdr.u32(len);
    hdr.u32(check);
    if (off + kFrameHeader + len > bytes.size())
        damaged("torn payload");
    std::string_view payload = bytes.substr(off + kFrameHeader, len);
    std::uint64_t h = fnv1a64(payload);
    if (static_cast<std::uint32_t>(mix64(h)) != check ||
        h != record_hashes_[index])
        damaged("log-segment hash mismatch");
    WalRecord r;
    if (!decode_record(payload, r))
        damaged("malformed payload");
    return r;
}

bool
Wal::verify() const
{
    WalReplayStatus st;
    std::vector<WalRecord> records = replay(&st);
    if (st.corrupt || st.torn_tail || st.records != record_hashes_.size())
        return false;
    std::uint64_t root = 0;
    for (const WalRecord& r : records)
        root = mix64(root ^ fnv1a64(encode_record(r)));
    return root == digest_;
}

void
Wal::clear()
{
    size_ = 0;
    record_hashes_.clear();
    record_offsets_.clear();
    digest_ = 0;
}

obs::Json
Wal::describe() const
{
    obs::Json d = obs::Json::object();
    d.set("name", name_);
    d.set("records", static_cast<std::uint64_t>(record_hashes_.size()));
    d.set("size_bytes", static_cast<std::uint64_t>(size_));
    d.set("digest", std::to_string(digest_));
    WalReplayStatus st;
    std::vector<WalRecord> records = replay(&st);
    d.set("torn_tail", st.torn_tail);
    d.set("corrupt", st.corrupt);
    obs::Json list = obs::Json::array();
    for (const WalRecord& r : records) {
        obs::Json rj = obs::Json::object();
        rj.set("kind", wal_record_kind_name(r.kind));
        rj.set("task", r.task);
        rj.set("channel", r.channel);
        rj.set("seq", r.seq);
        rj.set("arg0", r.arg0);
        rj.set("arg1", r.arg1);
        rj.set("arg2", r.arg2);
        rj.set("kvs", static_cast<std::uint64_t>(r.kvs.size()));
        list.push_back(std::move(rj));
    }
    d.set("log", std::move(list));
    return d;
}

void
Wal::truncate_tail(std::size_t n)
{
    size_ -= std::min(n, size_);
}

void
Wal::flip_byte(std::size_t offset)
{
    ASK_ASSERT(offset < size_, "flip_byte past WAL end");
    bytes_[offset] = static_cast<char>(bytes_[offset] ^ 0x40);
}

Wal&
WalStore::wal(const std::string& name)
{
    auto it = wals_.find(name);
    if (it == wals_.end())
        it = wals_.emplace(name, Wal(name)).first;
    return it->second;
}

Wal&
WalStore::host_wal(std::uint32_t host)
{
    return wal("host" + std::to_string(host));
}

obs::Json
WalStore::describe() const
{
    obs::Json d = obs::Json::object();
    for (const auto& [name, w] : wals_)
        d.set(name, w.describe());
    return d;
}

void
apply_rx_record(WalRxTaskState& state, const WalRecord& header,
                const KvStream& kvs)
{
    apply_rx(state, header, kvs);
}

void
apply_rx_record(WalRxTaskState& state, const WalRecord& record)
{
    apply_rx(state, record, record.kvs);
}

WalDaemonState
rebuild_daemon_state(const std::vector<WalRecord>& records,
                     ReduceOp default_op)
{
    WalDaemonState state;
    std::map<TaskId, std::uint32_t> resets;

    for (std::size_t index = 0; index < records.size(); ++index) {
        const WalRecord& r = records[index];
        switch (r.kind) {
          case WalRecordKind::kRxTaskStart: {
            WalRxTaskState& t = state.rx_tasks[r.task];
            t.op = default_op;
            apply_rx_record(t, r);
            resets[r.task] = 0;
            break;
          }
          case WalRecordKind::kRxData:
          case WalRecordKind::kRxFin:
          case WalRecordKind::kRxSwapCommit:
          case WalRecordKind::kRxReset: {
            auto it = state.rx_tasks.find(r.task);
            if (it == state.rx_tasks.end())
                break;
            WalRxTaskState& t = it->second;
            apply_rx_record(t, r);
            // The fold-only fields: the seen-window history (it survives
            // a reset, like the live windows) and the drain deadline.
            if (r.kind == WalRecordKind::kRxData) {
                t.observed.emplace_back(r.channel, r.seq);
            } else if (r.kind == WalRecordKind::kRxReset) {
                t.restart_drain_until = kv_scalar(r, "drain_until");
                ++resets[r.task];
            }
            break;
          }
          case WalRecordKind::kRxTaskDone:
            state.rx_tasks.erase(r.task);
            resets.erase(r.task);
            break;
          case WalRecordKind::kSendSubmit:
            state.sends[r.task].push_back(index);
            break;
          case WalRecordKind::kSendForget:
            state.sends.erase(r.task);
            break;
          case WalRecordKind::kSeqCheckpoint: {
            Seq& cur = state.resume_seq[r.channel];
            cur = std::max(cur, r.seq);
            break;
          }
          case WalRecordKind::kHostRecovered:
            ++state.recoveries;
            break;
          case WalRecordKind::kAlloc:
          case WalRecordKind::kRelease:
            break;  // controller journal records; not daemon state
        }
    }

    // Fence stale callbacks: any generation the pre-crash process could
    // have handed out is at most 1 (start) + resets + recoveries-so-far,
    // so the rebuilt generation overshoots it by construction.
    for (auto& [task, t] : state.rx_tasks)
        t.generation = 2 + resets[task] + state.recoveries;
    return state;
}

}  // namespace ask::core
