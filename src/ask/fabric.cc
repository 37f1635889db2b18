#include "ask/fabric.h"

#include <utility>

#include "common/logging.h"

namespace ask::core {

std::string
controller_wal_name(SwitchId s)
{
    if (s.value() == 0)
        return "controller";
    return "controller.s" + std::to_string(s.value());
}

FabricController::FabricController(std::vector<AskSwitchProgram*> programs)
    : programs_(std::move(programs)),
      capacity_(programs_.at(0)->config().copy_size()),
      epoch_slot_used_(programs_.at(0)->config().max_tasks, false)
{
    for (AskSwitchProgram* p : programs_)
        ASK_ASSERT(p != nullptr, "controller over a null program");
}

void
FabricController::attach_wals(WalStore& store, std::uint64_t* append_counter)
{
    for (std::uint32_t s = 0; s < num_switches(); ++s) {
        Wal& wal = store.wal(controller_wal_name(SwitchId{s}));
        wal.set_append_counter(append_counter);
        wals_.push_back(&wal);
    }
}

void
FabricController::append_to_logs(const WalRecord& r)
{
    for (Wal* wal : wals_)
        wal->append(r);
}

std::optional<TaskRegion>
FabricController::allocate(TaskId task, std::uint32_t len, ReduceOp op)
{
    if (len == 0 || len > capacity_)
        return std::nullopt;

    // First-fit over the gaps between allocated slices.
    std::uint32_t cursor = 0;
    std::uint32_t base = capacity_;  // sentinel: not found
    for (const auto& [alloc_base, info] : allocated_) {
        if (alloc_base - cursor >= len) {
            base = cursor;
            break;
        }
        cursor = alloc_base + info.first.len;
    }
    if (base == capacity_) {
        if (capacity_ - cursor >= len)
            base = cursor;
        else
            return std::nullopt;
    }

    std::uint32_t epoch_slot = 0;
    while (epoch_slot < epoch_slot_used_.size() && epoch_slot_used_[epoch_slot])
        ++epoch_slot;
    if (epoch_slot == epoch_slot_used_.size())
        return std::nullopt;

    TaskRegion region;
    region.base = base;
    region.len = len;
    region.epoch_slot = epoch_slot;
    region.op = op;

    // Reject an undeclared operator BEFORE journaling or mutating: the
    // install below would throw the same ConfigError, but only after
    // the WAL and journal already recorded a region that never existed.
    for (const AskSwitchProgram* p : programs_) {
        if (p->access_plan().find_reduce_op(static_cast<std::uint8_t>(op)) ==
            nullptr) {
            fail_config("task ", task, " requests reduce op '",
                        reduce_op_name(op), "' (id ",
                        static_cast<unsigned>(op),
                        "), which this switch program's access plan does "
                        "not declare");
        }
    }

    // Journal before acting: if we crash after this append, recovery
    // rebuilds the allocation and re-installs it on the data planes.
    WalRecord r;
    r.kind = WalRecordKind::kAlloc;
    r.task = task;
    r.arg0 = base;
    r.arg1 = len;
    r.arg2 = epoch_slot;
    r.kvs.emplace_back("op", static_cast<std::uint64_t>(op));
    append_to_logs(r);
    epoch_slot_used_[epoch_slot] = true;
    allocated_[base] = {region, task};
    fetched_.erase(task);  // a reused task id starts a fresh tally
    for (AskSwitchProgram* p : programs_)
        p->install_task(task, region);
    return region;
}

void
FabricController::release(TaskId task)
{
    auto it = allocated_.begin();
    while (it != allocated_.end() && it->second.second != task)
        ++it;
    if (it == allocated_.end())
        fail_state("release of unknown task ", task);
    WalRecord r;
    r.kind = WalRecordKind::kRelease;
    r.task = task;
    r.arg0 = it->first;
    append_to_logs(r);
    epoch_slot_used_[it->second.first.epoch_slot] = false;
    allocated_.erase(it);
    // A future task reusing this slice starts blank on copy 0, epoch 0.
    for (AskSwitchProgram* p : programs_) {
        p->wipe_region(task);
        p->remove_task(task);
    }
}

void
FabricController::crash()
{
    allocated_.clear();
    epoch_slot_used_.assign(epoch_slot_used_.size(), false);
    fetched_.clear();
}

std::uint32_t
FabricController::recover_from_wal()
{
    ASK_ASSERT(!wals_.empty(), "controller recovery without a WAL");
    // Throwing replay: a digest mismatch on any switch's log surfaces
    // as StateError before anything is rebuilt, and the cluster aborts
    // the affected tasks instead of trusting the logs.
    std::vector<WalRecord> records = wals_.front()->replay();
    for (std::size_t s = 1; s < wals_.size(); ++s)
        wals_[s]->replay();
    allocated_.clear();
    epoch_slot_used_.assign(epoch_slot_used_.size(), false);
    for (const WalRecord& r : records) {
        if (r.kind == WalRecordKind::kAlloc) {
            TaskRegion region;
            region.base = r.arg0;
            region.len = r.arg1;
            region.epoch_slot = r.arg2;
            // Pre-op journals carry no "op" kv; those regions were kAdd.
            for (const auto& [key, value] : r.kvs)
                if (key == "op")
                    region.op = static_cast<ReduceOp>(value);
            allocated_[region.base] = {region, r.task};
            epoch_slot_used_[region.epoch_slot] = true;
        } else if (r.kind == WalRecordKind::kRelease) {
            auto it = allocated_.find(r.arg0);
            if (it != allocated_.end() && it->second.second == r.task) {
                epoch_slot_used_[it->second.first.epoch_slot] = false;
                allocated_.erase(it);
            }
        }
    }
    // The data planes survive a controller crash, but a switch reboot
    // may have raced the outage; restore any missing install.
    reinstall_after_reboot();
    return static_cast<std::uint32_t>(allocated_.size());
}

std::uint32_t
FabricController::reinstall_after_reboot()
{
    // Idempotent per switch: only a switch whose data plane lost a
    // journaled binding (i.e. the one that rebooted) re-installs.
    std::uint32_t count = 0;
    for (AskSwitchProgram* p : programs_) {
        for (const auto& [base, info] : allocated_) {
            if (p->find_task(info.second) == nullptr) {
                p->install_task(info.second, info.first);
                ++count;
            }
        }
    }
    return count;
}

void
FabricController::fence_channel(ChannelId channel, Seq next_seq)
{
    // Fence everywhere the channel has reliability state: its owning
    // ToR and the aggregation tier.
    for (AskSwitchProgram* p : programs_)
        if (p->provisions(channel))
            p->fence_channel(channel, next_seq);
}

AskSwitchProgram::ProbeResult
FabricController::probe_packet(ChannelId channel, Seq seq) const
{
    // Merge the per-switch verdicts. A slot any switch consumed was
    // aggregated (the consumer ACKs or forwards on the packet's
    // behalf), so `remaining` is the intersection over the switches
    // that observed the packet; `observed` is the union.
    AskSwitchProgram::ProbeResult merged;
    for (const AskSwitchProgram* p : programs_) {
        if (!p->provisions(channel))
            continue;
        AskSwitchProgram::ProbeResult r = p->probe_packet(channel, seq);
        if (!r.observed)
            continue;
        merged.remaining = merged.observed ? (merged.remaining & r.remaining)
                                           : r.remaining;
        merged.observed = true;
    }
    return merged;
}

KvStream
FabricController::fetch(TaskId task, std::uint32_t copy, bool clear)
{
    // Concatenate the per-switch slices: the software tier-merge. The
    // caller folds keys split across switches with merge_stream_into()
    // under the region's bound ReduceOp — a concatenation is op-agnostic,
    // so min/max regions tier-merge just as correctly as sums.
    std::vector<std::uint64_t>& tally =
        fetched_.try_emplace(task, programs_.size(), 0).first->second;
    KvStream out;
    for (std::size_t s = 0; s < programs_.size(); ++s) {
        KvStream part = programs_[s]->read_region(task, copy, clear);
        tally[s] += part.size();
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

std::vector<std::uint64_t>
FabricController::fetched_tally(TaskId task) const
{
    auto it = fetched_.find(task);
    if (it == fetched_.end())
        return std::vector<std::uint64_t>(programs_.size(), 0);
    return it->second;
}

std::uint64_t
FabricController::fetch_scan_entries(TaskId task) const
{
    std::uint64_t entries = 0;
    for (const AskSwitchProgram* p : programs_)
        if (p->find_task(task) != nullptr)
            entries += p->region_scan_entries(task);
    return entries;
}

std::optional<std::uint32_t>
FabricController::current_epoch(TaskId task) const
{
    const AskSwitchProgram& p = *programs_.front();
    if (p.find_task(task) == nullptr)
        return std::nullopt;
    return p.current_epoch(task);
}

std::uint32_t
FabricController::free_aggregators() const
{
    std::uint32_t used = 0;
    for (const auto& [base, info] : allocated_)
        used += info.first.len;
    return capacity_ - used;
}

}  // namespace ask::core
