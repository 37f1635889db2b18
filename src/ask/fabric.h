/**
 * @file
 * The switch control plane: allocates switch-memory regions to
 * aggregation tasks (workflow steps 3 and 12 of paper §3.1) and provides
 * the slow-path fetch/reset used at task teardown and shadow-copy swaps.
 *
 * One FabricController programs every switch of a deployment — the lone
 * ToR of a single rack, or every ToR plus the aggregation-tier switch of
 * a multi-rack fabric (paper §7). It owns ONE allocation journal (the
 * first-fit region map and the epoch-slot table) and applies each
 * mutation to every switch:
 *
 *   - allocate/release install (wipe and unbind) the task's region on
 *     every switch: a task aggregates wherever its packets travel, so
 *     every switch on any path needs the region at the same base.
 *   - fetch concatenates the per-switch region drains — the software
 *     tier-merge of the partial aggregates; the receiver's
 *     merge_stream_into() folds keys split across switches under the
 *     task's bound ReduceOp (not an assumed `+`).
 *   - fence_channel reaches every switch provisioning the channel (the
 *     owning ToR and the tier), so a recovery fence is fabric-wide.
 *   - probe_packet merges verdicts: a slot consumed on ANY switch of
 *     the packet's path is consumed.
 *   - reinstall_after_reboot is idempotent per switch, so one rebooted
 *     ToR re-installs only its own lost bindings.
 *
 * Each switch keeps its own write-ahead log (see controller_wal_name),
 * and every journal record is appended to all of them.
 */
#ifndef ASK_ASK_FABRIC_H
#define ASK_ASK_FABRIC_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ask/switch_program.h"
#include "ask/types.h"
#include "ask/wal.h"

namespace ask::core {

/**
 * Name of the WAL journaling switch `s`'s regions. Switch 0 keeps the
 * classic "controller" name so single-switch tooling (and recovery
 * probes) keep working; the rest are "controller.s<N>".
 */
std::string controller_wal_name(SwitchId s);

/**
 * Manages the aggregator index space [0, copy_size) shared by all AAs
 * of every switch: each task receives one contiguous slice visible in
 * all AAs (and both shadow copies) of every switch. First-fit
 * allocation with coalescing free.
 */
class FabricController
{
  public:
    /**
     * @param programs one program per switch, indexed by SwitchId
     *                 (ToRs first, the tier switch last); a single rack
     *                 is a list of one. Must outlive the controller; at
     *                 least one entry, all built from one AskConfig.
     */
    explicit FabricController(std::vector<AskSwitchProgram*> programs);

    /**
     * Attach one WAL per switch from `store`, named per
     * controller_wal_name(). Once attached, every allocation and
     * release is journaled to every log *before* the in-memory journal
     * or any data plane changes, so a crashed controller can rebuild
     * its allocation state exactly. `append_counter` (optional)
     * receives every journal append.
     */
    void attach_wals(WalStore& store, std::uint64_t* append_counter);

    /**
     * Allocate `len` aggregators per AA per copy for a task, bind the
     * region to reduction operator `op`, and install it on every
     * switch. Throws ask::ConfigError when a switch program's access
     * plan does not declare `op` (e.g. kFloat on a narrow-word build).
     * @return the region, or std::nullopt when memory or epoch slots are
     *         exhausted.
     */
    std::optional<TaskRegion> allocate(TaskId task, std::uint32_t len,
                                       ReduceOp op = ReduceOp::kAdd);

    /** Release a task's region: wipe and unbind it on every switch.
     *  Throws StateError for a task with no journaled region (e.g. a
     *  double release across a crash) — callers on the runtime path
     *  catch and move on. */
    void release(TaskId task);

    /**
     * Crash: lose the in-memory allocation journal, epoch-slot map and
     * fetch tallies (the WALs, owned by the cluster's WalStore,
     * survive).
     */
    void crash();

    /**
     * Rebuild the allocation journal from the WALs, then re-install any
     * journaled region a data plane no longer carries (covers a switch
     * reboot overlapping the crash). Every switch's log is checked
     * first: one that fails its digest check throws StateError with
     * nothing rebuilt. The logs carry identical records, so switch 0's
     * alloc/release fold is the journal.
     * @return the number of regions in the rebuilt journal.
     */
    std::uint32_t recover_from_wal();

    /**
     * Slow-path read of one shadow copy of the task's region on every
     * switch (optionally clearing it), decoding the aggregators into
     * tuples and concatenating the per-switch slices in SwitchId order.
     */
    KvStream fetch(TaskId task, std::uint32_t copy, bool clear);

    /** Aggregator entries a fetch of this task scans (cost accounting).
     *  A switch holding no binding for the task — a ToR mid-reboot —
     *  contributes none. */
    std::uint64_t fetch_scan_entries(TaskId task) const;

    /** Current swap epoch of the task on switch 0 (epochs advance in
     *  lock-step; swaps are disabled in fabrics); std::nullopt when
     *  switch 0 holds no binding for it. */
    std::optional<std::uint32_t> current_epoch(TaskId task) const;

    /** Free aggregators per AA per copy remaining. */
    std::uint32_t free_aggregators() const;

    /**
     * Failure recovery: a switch CPU rebooted and lost its task table
     * (and all register state). Re-install every journaled region on
     * each data plane missing it. The journal — not switch memory — is
     * the source of truth for allocations, which is what makes this
     * safe.
     * @return the number of bindings re-installed, over all switches.
     */
    std::uint32_t reinstall_after_reboot();

    /** Recovery: AskSwitchProgram::fence_channel on every switch that
     *  provisions the channel. */
    void fence_channel(ChannelId channel, Seq next_seq);

    /** Degraded mode: AskSwitchProgram::probe_packet, merged over the
     *  provisioning switches — a slot consumed on any switch of the
     *  path is consumed. */
    AskSwitchProgram::ProbeResult probe_packet(ChannelId channel,
                                               Seq seq) const;

    /** Switches this control plane manages (1 for the classic ToR). */
    std::uint32_t num_switches() const
    {
        return static_cast<std::uint32_t>(programs_.size());
    }

    /**
     * Tuples fetched from each switch for `task` (slow-path drains:
     * finalize and swap commits), indexed by SwitchId. Survives
     * release() so completion reports can attribute the result to its
     * owning switches; reset when the task id is re-allocated.
     */
    std::vector<std::uint64_t> fetched_tally(TaskId task) const;

  private:
    void append_to_logs(const WalRecord& r);

    std::vector<AskSwitchProgram*> programs_;
    std::uint32_t capacity_;
    /**
     * Allocation journal, base -> (region, task). Holds the full region
     * (not just the length) so a post-reboot reinstall can restore the
     * exact epoch-slot bindings the senders' traffic still references.
     */
    std::map<std::uint32_t, std::pair<TaskRegion, TaskId>> allocated_;
    std::vector<bool> epoch_slot_used_;
    /** Tuples drained per task, per switch (see fetched_tally). */
    std::unordered_map<TaskId, std::vector<std::uint64_t>> fetched_;
    /** One log per switch, indexed by SwitchId; empty = no WAL. */
    std::vector<Wal*> wals_;
};

}  // namespace ask::core

#endif  // ASK_ASK_FABRIC_H
