/**
 * Write-ahead log tests: framing round-trips, merkle-digest integrity,
 * the two corruption classes (torn tail tolerated, damaged record
 * rejected with a typed error and no UB), and the pure daemon-state
 * fold whose idempotence the crash-recovery proof rides on.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "ask/fabric.h"
#include "ask/wal.h"
#include "common/logging.h"

namespace ask::core {
namespace {

WalRecord
data_record(TaskId task, std::uint32_t channel, Seq seq,
            std::vector<std::pair<std::string, std::uint64_t>> kvs)
{
    WalRecord r;
    r.kind = WalRecordKind::kRxData;
    r.task = task;
    r.channel = channel;
    r.seq = seq;
    r.kvs = std::move(kvs);
    return r;
}

WalRecord
start_record(TaskId task, std::uint32_t senders, bool swaps_disabled)
{
    WalRecord r;
    r.kind = WalRecordKind::kRxTaskStart;
    r.task = task;
    r.arg0 = senders;
    r.arg1 = swaps_disabled ? 1 : 0;
    r.kvs = {{"liveness_ns", 0}, {"start_time", 100}};
    return r;
}

std::vector<WalRecord>
sample_records()
{
    std::vector<WalRecord> rs;
    rs.push_back(start_record(7, 2, false));
    rs.push_back(data_record(7, 3, 0, {{"alpha", 4}, {"beta", 9}}));
    WalRecord fin;
    fin.kind = WalRecordKind::kRxFin;
    fin.task = 7;
    fin.channel = 3;
    rs.push_back(fin);
    return rs;
}

// ---------------------------------------------------------------------------
// Framing and integrity.
// ---------------------------------------------------------------------------

TEST(Wal, RecordsRoundTripExactly)
{
    Wal wal("test");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_FALSE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_EQ(st.records, rs.size());
    EXPECT_EQ(st.valid_bytes, wal.size_bytes());
    ASSERT_EQ(replayed.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(replayed[i], rs[i]) << "record " << i;
    EXPECT_TRUE(wal.verify());
}

TEST(Wal, EmptyLogIsCleanAndVerifies)
{
    Wal wal("empty");
    WalReplayStatus st;
    EXPECT_TRUE(wal.replay(&st).empty());
    EXPECT_FALSE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_TRUE(wal.verify());
    EXPECT_EQ(wal.digest(), 0u);
}

TEST(Wal, TornTailYieldsTheDurablePrefix)
{
    Wal wal("torn");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    // Rip a few bytes off the last record: a crash mid-append.
    wal.truncate_tail(3);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_EQ(replayed.size(), 2u);  // the prefix before the tear
    EXPECT_EQ(replayed[0], sample_records()[0]);
    // The full-log integrity check must still notice the missing tail.
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, FrameBoundaryTruncationIsStillATornTail)
{
    // Truncation that lands exactly on a frame boundary leaves a byte
    // image that parses cleanly — only the segment list betrays it.
    Wal wal("boundary");
    std::vector<WalRecord> rs = sample_records();
    wal.append(rs[0]);
    std::size_t after_first = wal.size_bytes();
    wal.append(rs[1]);
    wal.truncate_tail(wal.size_bytes() - after_first);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_EQ(replayed.size(), 1u);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, CorruptRecordIsReportedWithoutThrowing)
{
    Wal wal("corrupt");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    // Damage a payload byte of the first record (offset past the 8-byte
    // frame header): media corruption, not a torn append.
    wal.flip_byte(10);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.corrupt);
    EXPECT_TRUE(replayed.empty());  // nothing before the damage
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, CorruptRecordThrowsTypedErrorWhenUnchecked)
{
    Wal wal("throwing");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    wal.flip_byte(10);
    EXPECT_THROW(wal.replay(), StateError);
}

TEST(Wal, CorruptionAfterAPrefixKeepsThePrefix)
{
    Wal wal("prefix");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);
    // Damage inside the *last* record's frame.
    wal.flip_byte(wal.size_bytes() - 2);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.corrupt);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0], rs[0]);
    EXPECT_EQ(replayed[1], rs[1]);
}

TEST(Wal, DigestChangesWithEveryAppend)
{
    Wal wal("digest");
    std::uint64_t last = wal.digest();
    for (const WalRecord& r : sample_records()) {
        wal.append(r);
        EXPECT_NE(wal.digest(), last);
        last = wal.digest();
    }
    EXPECT_EQ(wal.records(), 3u);
    EXPECT_EQ(wal.segment_hashes().size(), 3u);
}

TEST(Wal, ClearDropsEverything)
{
    Wal wal("cleared");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    wal.clear();
    EXPECT_EQ(wal.records(), 0u);
    EXPECT_EQ(wal.size_bytes(), 0u);
    EXPECT_EQ(wal.digest(), 0u);
    EXPECT_TRUE(wal.verify());
}

TEST(Wal, AppendCounterRoutesToExternalStat)
{
    Wal wal("counted");
    std::uint64_t count = 0;
    wal.set_append_counter(&count);
    for (const WalRecord& r : sample_records())
        wal.append(r);
    EXPECT_EQ(count, 3u);
}

/** A fixed sequence that exercises every record kind, a record with
 *  no kvs, an empty key and a key longer than 255 bytes. */
std::vector<WalRecord>
framing_corpus()
{
    std::vector<WalRecord> rs;
    for (std::uint8_t k = static_cast<std::uint8_t>(WalRecordKind::kAlloc);
         k <= static_cast<std::uint8_t>(WalRecordKind::kHostRecovered); ++k) {
        WalRecord r;
        r.kind = static_cast<WalRecordKind>(k);
        r.task = 1000u + k;
        r.channel = 3u * k;
        r.seq = 0xFFFFFF00u + k;
        r.arg0 = k;
        r.arg1 = 0x80000000u | k;
        r.arg2 = 7u * k;
        if (k % 3 == 1)
            r.kvs = {{"key" + std::to_string(k), 0x0123456789ABCDEFull * k}};
        else if (k % 3 == 2)
            r.kvs = {{"", k}, {"x", ~0ull}};
        rs.push_back(std::move(r));
    }
    WalRecord long_key = data_record(9, 1, 2, {{std::string(300, 'q'), 42}});
    rs.push_back(long_key);
    return rs;
}

// Golden values from the byte-by-byte encoder this in-place framing
// replaced: the bytes on the log, and so the digests, must not change.
constexpr std::size_t kCorpusBytes = 958;
constexpr std::uint64_t kCorpusDigest = 6651864677327890676ull;

TEST(Wal, FramingIsByteIdenticalToTheGoldenLog)
{
    Wal wal("golden");
    std::vector<WalRecord> rs = framing_corpus();
    for (const WalRecord& r : rs)
        wal.append(r);
    EXPECT_EQ(wal.size_bytes(), kCorpusBytes);
    EXPECT_EQ(wal.digest(), kCorpusDigest);
    EXPECT_TRUE(wal.verify());
    EXPECT_EQ(wal.replay(), rs);
}

TEST(Wal, ReadReturnsTheReplayedRecordAtEveryIndex)
{
    Wal wal("indexed");
    for (const WalRecord& r : framing_corpus())
        wal.append(r);
    std::vector<WalRecord> replayed = wal.replay();
    ASSERT_EQ(replayed.size(), wal.records());
    for (std::size_t i = 0; i < replayed.size(); ++i)
        EXPECT_EQ(wal.read(i), replayed[i]) << "record " << i;
    EXPECT_THROW(wal.read(replayed.size()), StateError);
}

TEST(Wal, ReadOfADamagedRecordThrowsTypedError)
{
    Wal wal("damaged");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);
    // A payload byte of the first record: only that record is unreadable.
    wal.flip_byte(10);
    EXPECT_THROW(wal.read(0), StateError);
    EXPECT_EQ(wal.read(1), rs[1]);
    EXPECT_EQ(wal.read(2), rs[2]);
}

TEST(Wal, ReadOfATornRecordThrowsTypedError)
{
    Wal wal("torn-read");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);
    wal.truncate_tail(3);
    EXPECT_EQ(wal.read(1), rs[1]);
    EXPECT_THROW(wal.read(2), StateError);
    // A tear that takes the whole frame, header included.
    wal.truncate_tail(wal.size_bytes());
    EXPECT_THROW(wal.read(0), StateError);
}

TEST(Wal, ParanoidModeVerifiesEveryAppend)
{
    ASSERT_EQ(::setenv("ASK_WAL_PARANOID", "1", 1), 0);
    Wal wal("paranoid");
    ASSERT_EQ(::unsetenv("ASK_WAL_PARANOID"), 0);
    // Each append re-verifies the whole log and panics on a mismatch.
    for (const WalRecord& r : framing_corpus())
        wal.append(r);
    EXPECT_EQ(wal.size_bytes(), kCorpusBytes);
    EXPECT_EQ(wal.digest(), kCorpusDigest);
}

/** A kSendSubmit header as AskDaemon::submit_send journals it. */
WalRecord
send_header(TaskId task, std::uint32_t receiver)
{
    WalRecord r;
    r.kind = WalRecordKind::kSendSubmit;
    r.task = task;
    r.arg0 = receiver;
    r.arg1 = 2;
    return r;
}

/** The same record with the stream copied into its kvs. */
WalRecord
with_kvs(WalRecord r, const KvStream& stream)
{
    for (const KvTuple& t : stream)
        r.kvs.emplace_back(t.key, t.value);
    return r;
}

TEST(Wal, StreamAppendMatchesTheRecordForm)
{
    // Framing a send record straight from the stream must leave the log
    // exactly as appending the copied WalRecord does: bytes, segment
    // hashes, digest and every re-read record.
    std::vector<KvStream> streams = {
        {},
        {{std::string(300, 'k'), 7}, {"a", 0}},
        {{"max", 0xFFFFFFFFu}, {"max-1", 0xFFFFFFFEu}, {"x", 0x80000000u}},
    };
    Wal by_record("by-record");
    Wal by_stream("by-stream");
    std::vector<WalRecord> others = framing_corpus();
    for (std::size_t i = 0; i < others.size(); ++i) {
        by_record.append(others[i]);
        by_stream.append(others[i]);
        const KvStream& s = streams[i % streams.size()];
        WalRecord header = send_header(static_cast<TaskId>(i), 3);
        by_record.append(with_kvs(header, s));
        by_stream.append(header, s);
    }
    EXPECT_EQ(by_stream.size_bytes(), by_record.size_bytes());
    EXPECT_EQ(by_stream.digest(), by_record.digest());
    EXPECT_EQ(by_stream.segment_hashes(), by_record.segment_hashes());
    ASSERT_EQ(by_stream.records(), by_record.records());
    for (std::size_t i = 0; i < by_stream.records(); ++i)
        EXPECT_EQ(by_stream.read(i), by_record.read(i)) << "record " << i;
    EXPECT_TRUE(by_stream.verify());
}

TEST(Wal, GrownImageStillDetectsDamage)
{
    // Enough appends to move the image through many reallocations, past
    // the size where the allocator switches to fresh mappings; damage
    // must still be caught at the record it hits.
    KvStream stream;
    for (int i = 0; i < 64; ++i)
        stream.push_back({"key-" + std::to_string(i), 0xFFFFFF00u + i});
    Wal wal("grown");
    constexpr std::size_t kRecords = 1000;
    for (std::size_t i = 0; i < kRecords; ++i)
        wal.append(send_header(static_cast<TaskId>(i), 1), stream);
    ASSERT_GT(wal.size_bytes(), 1u << 20);
    EXPECT_TRUE(wal.verify());
    EXPECT_EQ(wal.read(kRecords - 1), with_kvs(send_header(kRecords - 1, 1),
                                               stream));

    // A flipped byte inside record 500 (every record has the same size):
    // that record is unreadable, its neighbours are not.
    std::size_t record_bytes = wal.size_bytes() / kRecords;
    Wal damaged = std::move(wal);
    damaged.flip_byte(500 * record_bytes + 20);
    EXPECT_FALSE(damaged.verify());
    EXPECT_THROW(damaged.read(500), StateError);
    EXPECT_EQ(damaged.read(499), with_kvs(send_header(499, 1), stream));
    EXPECT_EQ(damaged.read(501), with_kvs(send_header(501, 1), stream));
    WalReplayStatus st;
    EXPECT_EQ(damaged.replay(&st).size(), 500u);
    EXPECT_TRUE(st.corrupt);

    Wal torn("grown-torn");
    for (std::size_t i = 0; i < kRecords; ++i)
        torn.append(send_header(static_cast<TaskId>(i), 1), stream);
    torn.truncate_tail(5);
    EXPECT_FALSE(torn.verify());
    EXPECT_THROW(torn.read(kRecords - 1), StateError);
    EXPECT_EQ(torn.replay(&st).size(), kRecords - 1);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
}

TEST(WalStore, NamesOneLogPerProcess)
{
    WalStore store;
    EXPECT_EQ(store.host_wal(0).name(), "host0");
    EXPECT_EQ(store.host_wal(3).name(), "host3");
    EXPECT_EQ(store.wal(controller_wal_name(SwitchId{0})).name(), "controller");
    EXPECT_EQ(store.wal(controller_wal_name(SwitchId{2})).name(),
              "controller.s2");
    // References are stable: the same process always gets the same log.
    store.host_wal(0).append(sample_records()[0]);
    EXPECT_EQ(store.host_wal(0).records(), 1u);
}

TEST(Wal, DescribeReportsTheLog)
{
    Wal wal("described");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    obs::Json d = wal.describe();
    ASSERT_NE(d.find("name"), nullptr);
    EXPECT_EQ(d.find("name")->as_string(), "described");
    EXPECT_EQ(d.find("records")->as_int(), 3);
    EXPECT_FALSE(d.find("corrupt")->as_bool());
    EXPECT_EQ(d.find("log")->size(), 3u);
}

// ---------------------------------------------------------------------------
// The pure daemon-state fold.
// ---------------------------------------------------------------------------

TEST(WalRebuild, FoldIsIdempotent)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 2, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}, {"b", 2}}));
    log.push_back(data_record(1, 1, 0, {{"a", 3}}));
    WalRecord cp;
    cp.kind = WalRecordKind::kSeqCheckpoint;
    cp.channel = 0;
    cp.seq = 64;
    log.push_back(cp);

    WalDaemonState once = rebuild_daemon_state(log, AggOp::kAdd);
    WalDaemonState twice = rebuild_daemon_state(log, AggOp::kAdd);
    EXPECT_EQ(once, twice);
    ASSERT_EQ(once.rx_tasks.size(), 1u);
    const WalRxTaskState& t = once.rx_tasks.at(1);
    EXPECT_EQ(t.local.at("a"), 4u);
    EXPECT_EQ(t.local.at("b"), 2u);
    EXPECT_EQ(t.observed.size(), 2u);
    EXPECT_EQ(t.packets_received, 2u);
    EXPECT_EQ(t.tuples_aggregated_locally, 3u);
}

TEST(WalRebuild, DoneRemovesTheTask)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    WalRecord done;
    done.kind = WalRecordKind::kRxTaskDone;
    done.task = 1;
    log.push_back(done);

    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    EXPECT_TRUE(state.rx_tasks.empty());
}

TEST(WalRebuild, SubmitsIndexTheirRecordsAndForgetRemoves)
{
    // Each submit stays its own record: the fold lists their indices in
    // append order, and replay re-reads receiver, op and the lifted
    // stream from the log.
    WalRecord s1;
    s1.kind = WalRecordKind::kSendSubmit;
    s1.task = 5;
    s1.arg0 = 2;  // receiver node
    s1.kvs = {{"x", 1}, {"y", 2}};
    WalRecord s2 = s1;
    s2.kvs = {{"z", 3}};
    Wal wal("sender");
    wal.append(s1);
    wal.append(start_record(7, 1, false));  // unrelated record between
    wal.append(s2);

    WalDaemonState state = rebuild_daemon_state(wal.replay(), AggOp::kAdd);
    ASSERT_EQ(state.sends.size(), 1u);
    ASSERT_EQ(state.sends.at(5), (std::vector<std::size_t>{0, 2}));
    WalRecord first = wal.read(state.sends.at(5)[0]);
    WalRecord second = wal.read(state.sends.at(5)[1]);
    EXPECT_EQ(first.kind, WalRecordKind::kSendSubmit);
    EXPECT_EQ(first.arg0, 2u);
    EXPECT_EQ(first.kvs, s1.kvs);
    EXPECT_EQ(second.arg0, 2u);
    EXPECT_EQ(second.kvs, s2.kvs);

    WalRecord forget;
    forget.kind = WalRecordKind::kSendForget;
    forget.task = 5;
    wal.append(forget);
    state = rebuild_daemon_state(wal.replay(), AggOp::kAdd);
    EXPECT_TRUE(state.sends.empty());
}

TEST(WalRebuild, ResetWipesProgressButKeepsObservedSeqs)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    log.push_back(data_record(1, 0, 1, {{"a", 1}}));
    WalRecord reset;
    reset.kind = WalRecordKind::kRxReset;
    reset.task = 1;
    reset.kvs = {{"drain_until", 5000}};
    log.push_back(reset);
    log.push_back(data_record(1, 0, 2, {{"b", 7}}));

    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    const WalRxTaskState& t = state.rx_tasks.at(1);
    // Aggregate restarted from scratch after the reset...
    EXPECT_EQ(t.local.count("a"), 0u);
    EXPECT_EQ(t.local.at("b"), 7u);
    EXPECT_EQ(t.packets_received, 1u);
    // ...but the duplicate-filter history survives it.
    EXPECT_EQ(t.observed.size(), 3u);
    EXPECT_EQ(t.restart_drain_until, 5000u);
    // One reset, no recoveries: generation 2 + 1.
    EXPECT_EQ(t.generation, 3u);
}

TEST(WalRebuild, GenerationOvershootsEveryPreCrashHandout)
{
    std::vector<WalRecord> log;
    WalRecord recovered;
    recovered.kind = WalRecordKind::kHostRecovered;
    log.push_back(recovered);
    log.push_back(recovered);  // host crashed twice before
    log.push_back(start_record(9, 1, true));

    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    EXPECT_EQ(state.recoveries, 2u);
    EXPECT_EQ(state.rx_tasks.at(9).generation, 4u);  // 2 + 0 resets + 2
    EXPECT_TRUE(state.rx_tasks.at(9).swaps_disabled);
}

TEST(WalRebuild, ResumeSeqIsTheMaxCheckpoint)
{
    auto checkpoint = [](std::uint32_t channel, Seq seq) {
        WalRecord r;
        r.kind = WalRecordKind::kSeqCheckpoint;
        r.channel = channel;
        r.seq = seq;
        return r;
    };
    WalDaemonState state = rebuild_daemon_state(
        {checkpoint(0, 64), checkpoint(1, 64), checkpoint(0, 192),
         checkpoint(0, 128)},
        AggOp::kAdd);
    EXPECT_EQ(state.resume_seq.at(0), 192u);
    EXPECT_EQ(state.resume_seq.at(1), 64u);
    EXPECT_EQ(state.resume_seq.count(2), 0u);
}

TEST(WalRebuild, FoldHonorsTheAggregationOp)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 9}}));
    log.push_back(data_record(1, 0, 1, {{"a", 3}}));

    EXPECT_EQ(rebuild_daemon_state(log, AggOp::kAdd).rx_tasks.at(1).local.at(
                  "a"),
              12u);
    EXPECT_EQ(rebuild_daemon_state(log, AggOp::kMax).rx_tasks.at(1).local.at(
                  "a"),
              9u);
    EXPECT_EQ(rebuild_daemon_state(log, AggOp::kMin).rx_tasks.at(1).local.at(
                  "a"),
              3u);
}

TEST(WalRebuild, PerTaskOpKvOverridesTheDefault)
{
    // A journalled "op" kv pins the task's operator; the default_op
    // argument only covers pre-upgrade logs that never recorded one.
    std::vector<WalRecord> log;
    WalRecord start = start_record(1, 1, false);
    start.kvs.emplace_back("op", static_cast<std::uint64_t>(AggOp::kMax));
    log.push_back(start);
    log.push_back(data_record(1, 0, 0, {{"a", 9}}));
    log.push_back(data_record(1, 0, 1, {{"a", 3}}));

    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    EXPECT_EQ(state.rx_tasks.at(1).op, AggOp::kMax);
    EXPECT_EQ(state.rx_tasks.at(1).local.at("a"), 9u);

    // An explicit "op" of 0 is kAdd, not "absent": it must win over a
    // non-add default.
    WalRecord start_add = start_record(2, 1, false);
    start_add.kvs.emplace_back("op", 0);
    std::vector<WalRecord> log2 = {start_add,
                                   data_record(2, 0, 0, {{"a", 9}}),
                                   data_record(2, 0, 1, {{"a", 3}})};
    state = rebuild_daemon_state(log2, AggOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(2).op, AggOp::kAdd);
    EXPECT_EQ(state.rx_tasks.at(2).local.at("a"), 12u);

    // No "op" kv at all: the caller's default applies.
    std::vector<WalRecord> log3 = {start_record(3, 1, false),
                                   data_record(3, 0, 0, {{"a", 9}}),
                                   data_record(3, 0, 1, {{"a", 3}})};
    state = rebuild_daemon_state(log3, AggOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(3).op, AggOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(3).local.at("a"), 3u);
}

TEST(WalRebuild, SendSubmitRestoresItsOp)
{
    // The stream is journalled already lifted; arg1 carries the op so
    // replay_task re-submits without a second lift, under the operator
    // the application chose.
    WalRecord s;
    s.kind = WalRecordKind::kSendSubmit;
    s.task = 5;
    s.arg0 = 2;  // receiver node
    s.arg1 = static_cast<std::uint32_t>(AggOp::kCount);
    s.kvs = {{"x", 1}};
    Wal wal("op");
    wal.append(s);
    WalDaemonState state = rebuild_daemon_state(wal.replay(), AggOp::kAdd);
    WalRecord read = wal.read(state.sends.at(5).at(0));
    EXPECT_EQ(static_cast<AggOp>(read.arg1), AggOp::kCount);
    EXPECT_EQ(read.arg0, 2u);
    EXPECT_EQ(read.kvs, s.kvs);

    // Pre-op records carry arg1 == 0, which is kAdd — the only operator
    // that existed when they were written — whatever the default op.
    Wal pre_op("pre-op");
    s.arg1 = 0;
    pre_op.append(s);
    state = rebuild_daemon_state(pre_op.replay(), AggOp::kMax);
    read = pre_op.read(state.sends.at(5).at(0));
    EXPECT_EQ(static_cast<AggOp>(read.arg1), AggOp::kAdd);
}

TEST(WalRebuild, DataForUnknownTaskIsDropped)
{
    // A done task's late records (or a controller journal mixed in) must
    // not resurrect state.
    std::vector<WalRecord> log;
    log.push_back(data_record(42, 0, 0, {{"ghost", 1}}));
    WalRecord alloc;
    alloc.kind = WalRecordKind::kAlloc;
    alloc.task = 1;
    log.push_back(alloc);
    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    EXPECT_TRUE(state.rx_tasks.empty());
    EXPECT_TRUE(state.sends.empty());
}

TEST(WalRebuild, SwapCommitMergesFetchedAggregates)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    WalRecord swap;
    swap.kind = WalRecordKind::kRxSwapCommit;
    swap.task = 1;
    swap.seq = 2;  // new epoch
    swap.kvs = {{"a", 10}, {"c", 4}};
    log.push_back(swap);

    WalDaemonState state = rebuild_daemon_state(log, AggOp::kAdd);
    const WalRxTaskState& t = state.rx_tasks.at(1);
    EXPECT_EQ(t.local.at("a"), 11u);
    EXPECT_EQ(t.local.at("c"), 4u);
    EXPECT_EQ(t.committed_epoch, 2u);
    EXPECT_EQ(t.swaps, 1u);
    EXPECT_EQ(t.tuples_fetched_from_switch, 2u);
}

}  // namespace
}  // namespace ask::core
