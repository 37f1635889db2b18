/**
 * @file
 * Host-side write-ahead logging for crash durability.
 *
 * The paper's reliability story covers packet loss (seq windows +
 * retransmission) and switch-memory loss (reboot recovery + replay),
 * but a crashed *host* was fatal: partial aggregates, per-channel seq
 * fences, and the controller's allocation journal lived only in
 * memory. This file adds the missing layer — a deterministic,
 * simulated-time write-ahead log each host process appends to *before*
 * acting, so a restart can rebuild exactly the state the log claims.
 *
 * Records are framed `[u32 len][u32 check][payload]` (little-endian)
 * over an in-memory byte image, mirroring an appended file. Integrity
 * is merkle-style: every record payload is hashed (fnv1a64) into a
 * log-segment hash list, and the root digest folds those hashes in
 * order. Replay distinguishes the two corruption classes a real log
 * sees:
 *
 *  - a *torn tail* — the crash landed mid-append, so the byte image is
 *    a proper prefix of what the segment list describes. Tolerated:
 *    the parsed records verify element-wise against a prefix of the
 *    hash list, and recovery proceeds from the last durable record.
 *  - a *corrupt record* — bytes inside a framed record changed. The
 *    payload hash no longer matches its log segment; replay reports
 *    (or throws) a typed StateError and recovery aborts the host's
 *    tasks rather than rebuilding silently-wrong state.
 *
 * rebuild_daemon_state() is the pure fold from a record sequence to
 * the daemon-visible state (partial aggregates, fin sets, observed
 * seqs, live send records, seq checkpoints); apply_rx_record() is the
 * per-task step it shares with the live daemon. Keeping it pure makes the
 * recovery-idempotence property directly testable: folding the same
 * log twice must produce operator==-identical state.
 */
#ifndef ASK_ASK_WAL_H
#define ASK_ASK_WAL_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ask/types.h"
#include "obs/json.h"

namespace ask::core {

/** What one WAL record describes. Values are part of the on-log
 *  encoding; append only. */
enum class WalRecordKind : std::uint8_t
{
    /** Controller: region allocated. task; arg0 = base, arg1 = len,
     *  arg2 = 1 if the task claimed the epoch slot. */
    kAlloc = 1,
    /** Controller: region released (task completed or aborted). */
    kRelease = 2,
    /** Sender: stream accepted for transmission. task; arg0 = receiver
     *  node, arg1 = ReduceOp id (0 = kAdd in pre-op logs); kvs = the
     *  stream, already lifted. The only copy of a sent stream:
     *  AskDaemon::replay_task re-reads it with Wal::read and re-sends
     *  it verbatim (a replay must not lift again). */
    kSendSubmit = 3,
    /** Sender: the task's submits are no longer replayable (receiver
     *  finished the task). */
    kSendForget = 4,
    /** Sender: all seqs below `seq` on `channel` are or may be in
     *  use; a restarted channel must resume at `seq`. */
    kSeqCheckpoint = 5,
    /** Receiver: task accepted. arg0 = expected senders, arg1 = 1 if
     *  swaps disabled; kvs carry liveness_ns / start_time / op (the
     *  ReduceOp id; absent in pre-op logs, meaning kAdd). */
    kRxTaskStart = 6,
    /** Receiver: fresh DATA packet consumed. channel + seq locate the
     *  seen-window slot; kvs = the decoded tuples it contributed. */
    kRxData = 7,
    /** Receiver: FIN consumed from `channel`. */
    kRxFin = 8,
    /** Receiver: shadow-copy swap committed. seq = new epoch; kvs =
     *  the aggregates fetched and merged from the retired copy. */
    kRxSwapCommit = 9,
    /** Receiver: task state reset for a post-reboot replay. kvs carry
     *  the drain deadline. Observed seqs intentionally survive. */
    kRxReset = 10,
    /** Receiver: task finished (delivered or failed). arg0 = the
     *  TaskStatus delivered to the tenant. */
    kRxTaskDone = 11,
    /** Host completed a crash recovery (generation fencing marker). */
    kHostRecovered = 12,
};

/** Human-readable record-kind name (logs, WAL inspection). */
const char* wal_record_kind_name(WalRecordKind kind);

/** One WAL record. Fixed scalar fields cover the common cases; kvs is
 *  the variable-length payload (tuples, fetched aggregates, named
 *  scalars) — a (key, u64 value) list like everything else in ASK. */
struct WalRecord
{
    WalRecordKind kind = WalRecordKind::kAlloc;
    TaskId task = 0;
    std::uint32_t channel = 0;
    Seq seq = 0;
    std::uint32_t arg0 = 0;
    std::uint32_t arg1 = 0;
    std::uint32_t arg2 = 0;
    std::vector<std::pair<std::string, std::uint64_t>> kvs;

    bool operator==(const WalRecord&) const = default;
};

/** Outcome of a replay() pass over the byte image. */
struct WalReplayStatus
{
    /** Records successfully parsed and hash-verified. */
    std::size_t records = 0;
    /** The image ends mid-record (crash during append). Tolerated. */
    bool torn_tail = false;
    /** A framed record's bytes do not match its log-segment hash, or a
     *  frame is malformed. Recovery must not trust this log. */
    bool corrupt = false;
    /** Bytes covered by verified records. */
    std::size_t valid_bytes = 0;
};

/**
 * One host's write-ahead log: an append-only byte image plus the
 * log-segment hash list and root digest appended in lock-step.
 *
 * The byte image models the durable medium; the hash list and digest
 * model the (tiny) separately-durable integrity metadata a real
 * deployment would replicate out-of-band. Fault-injection helpers
 * mutate only the byte image, exactly like media corruption.
 */
class Wal
{
  public:
    explicit Wal(std::string name);

    const std::string& name() const { return name_; }

    /** Append one record: frame + payload into the byte image, payload
     *  hash onto the segment list, hash folded into the root digest. */
    void append(const WalRecord& record);

    /** Append `header` with kvs = `stream`'s (key, value) tuples, framed
     *  straight from the stream: the same bytes, segment hash and digest
     *  as append() of that record, without copying the stream into it.
     *  `header.kvs` must be empty. */
    void append(const WalRecord& header, const KvStream& stream);

    /** Records appended (== log segments). */
    std::size_t records() const { return record_hashes_.size(); }

    /** Root digest: ordered fold of the segment hashes. */
    std::uint64_t digest() const { return digest_; }

    /** The per-record log-segment hashes, in append order. */
    const std::vector<std::uint64_t>&
    segment_hashes() const
    {
        return record_hashes_;
    }

    /**
     * Parse and hash-verify the byte image against the segment list.
     * A torn tail yields the verified prefix with status->torn_tail
     * set. Corruption either sets status->corrupt (when `status` is
     * non-null; the verified prefix before the damage is returned) or
     * throws StateError (when `status` is null).
     */
    std::vector<WalRecord> replay(WalReplayStatus* status = nullptr) const;

    /**
     * Re-read record `index` (append order, as records() counted it
     * before the append) straight from the byte image: the frame is
     * bounds-checked, its payload hash checked against the record's log
     * segment, then decoded. Throws StateError when the index is out of
     * range or the record is torn or damaged.
     */
    WalRecord read(std::size_t index) const;

    /** Full integrity check: replay cleanly covers every segment and
     *  the recomputed root matches digest(). */
    bool verify() const;

    /** Drop everything (a released journal; not a crash). */
    void clear();

    /** Structured inspection document (operations runbook: dump a
     *  host's WAL to see what recovery will rebuild). */
    obs::Json describe() const;

    /** Size of the byte image. */
    std::size_t size_bytes() const { return size_; }

    /** Route append counting into an external stats counter. */
    void set_append_counter(std::uint64_t* counter)
    {
        append_counter_ = counter;
    }

    // ---- fault injection (tests) -------------------------------------------
    /** Drop the last `n` bytes of the image: a torn tail. */
    void truncate_tail(std::size_t n);
    /** Flip one byte of the image: media corruption. */
    void flip_byte(std::size_t offset);

  private:
    /** Frame one record whose kvs are `kvs` onto the image. */
    template <typename Kvs>
    void append_framed(const WalRecord& record, const Kvs& kvs);

    std::string_view image() const { return {bytes_.get(), size_}; }

    std::string name_;
    /** The byte image: size_ bytes in use of capacity_. Grown
     *  geometrically; bytes past size_ are never initialised or read. */
    std::unique_ptr<char[]> bytes_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
    std::vector<std::uint64_t> record_hashes_;
    /** Byte offset of each record's frame, parallel to record_hashes_. */
    std::vector<std::size_t> record_offsets_;
    std::uint64_t digest_ = 0;
    std::uint64_t* append_counter_ = nullptr;
    /** ASK_WAL_PARANOID=1: re-verify the whole log on every append. */
    bool paranoid_ = false;
};

/**
 * The cluster's stable storage: one named Wal per host process
 * ("controller", "host0", ...). Owned by the cluster, *not* by the
 * components — a crash wipes a component's memory but never its WAL.
 */
class WalStore
{
  public:
    /** Get or create the log named `name`. References stay valid for
     *  the store's lifetime. */
    Wal& wal(const std::string& name);

    /** The log for host daemon `host`. */
    Wal& host_wal(std::uint32_t host);

    obs::Json describe() const;

  private:
    std::map<std::string, Wal> wals_;
};

// ---- pure state rebuild ----------------------------------------------------

/** A receive task's durable state, changed only by apply_rx_record (the
 *  live ReceiveTask's core). observed, generation and
 *  restart_drain_until are the fold's own. */
struct WalRxTaskState
{
    std::uint32_t expected_senders = 0;
    bool swaps_disabled = false;
    /** The task's reduction operator; folds below combine with it. */
    ReduceOp op = ReduceOp::kAdd;
    /** Bit-cast of the task's liveness timeout (ns, -1 = disabled). */
    std::uint64_t liveness_ns = static_cast<std::uint64_t>(-1);
    std::uint64_t start_time = 0;
    /** Generation strictly above any the pre-crash process handed out
     *  (fences stale in-flight callbacks). */
    std::uint32_t generation = 2;
    /** Last kRxReset drain deadline (0 = none since start/reset). */
    std::uint64_t restart_drain_until = 0;
    AggregateMap local;
    std::set<std::uint32_t> fins;
    /** (channel global id, seq) of every fresh packet consumed, in
     *  order — replayed into the seen windows so duplicates stay
     *  duplicates after recovery. Survives kRxReset by design. */
    std::vector<std::pair<std::uint32_t, Seq>> observed;
    std::uint32_t committed_epoch = 0;
    std::uint64_t tuples_aggregated_locally = 0;
    std::uint64_t tuples_fetched_from_switch = 0;
    std::uint64_t packets_received = 0;
    std::uint32_t swaps = 0;

    bool operator==(const WalRxTaskState&) const = default;
};

/**
 * The one transition of a receive task's durable state, run by the live
 * daemon after each append and by the fold: apply a kRxTaskStart (the
 * preset op stands only if the record names none), kRxData, kRxFin,
 * kRxSwapCommit or kRxReset (keeps the task's parameters, swap policy
 * included). The stream form takes the record's tuples from `kvs`.
 */
void apply_rx_record(WalRxTaskState& state, const WalRecord& record);
void apply_rx_record(WalRxTaskState& state, const WalRecord& header,
                     const KvStream& kvs);

/** Everything a daemon restart rebuilds from its WAL. */
struct WalDaemonState
{
    /** Live (not yet done) receive tasks. */
    std::map<TaskId, WalRxTaskState> rx_tasks;
    /** Live sends (submit without forget): per task, the record
     *  indices of its kSendSubmit records in append order — replay
     *  re-reads each one with Wal::read. */
    std::map<TaskId, std::vector<std::size_t>> sends;
    /** Per-local-channel resume seq (max checkpoint). */
    std::map<std::uint32_t, Seq> resume_seq;
    /** Completed recoveries recorded in the log. */
    std::uint32_t recoveries = 0;

    bool operator==(const WalDaemonState&) const = default;
};

/**
 * Fold a daemon WAL's records into the state a restart installs. Pure:
 * same records + same default op => operator==-identical state (the
 * recovery idempotence proof rides on this). `default_op` applies to
 * records from pre-op logs that carry no explicit operator; every fold
 * is combine-only — journaled tuples were lifted before they were
 * journaled.
 */
WalDaemonState rebuild_daemon_state(const std::vector<WalRecord>& records,
                                    ReduceOp default_op);

}  // namespace ask::core

#endif  // ASK_ASK_WAL_H
