#include "ask/controller.h"

#include "common/logging.h"

namespace ask::core {

AskSwitchController::AskSwitchController(AskSwitchProgram& program)
    : program_(program),
      capacity_(program.config().copy_size()),
      epoch_slot_used_(program.config().max_tasks, false)
{
}

std::optional<TaskRegion>
AskSwitchController::allocate(TaskId task, std::uint32_t len, ReduceOp op)
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
    if (program_.access_plan().find_reduce_op(
            static_cast<std::uint8_t>(op)) == nullptr) {
        fail_config("task ", task, " requests reduce op '",
                    reduce_op_name(op), "' (id ",
                    static_cast<unsigned>(op),
                    "), which this switch program's access plan does not "
                    "declare");
    }

    // Journal before acting: if we crash after this append, recovery
    // rebuilds the allocation and re-installs it on the data plane.
    if (wal_ != nullptr) {
        WalRecord r;
        r.kind = WalRecordKind::kAlloc;
        r.task = task;
        r.arg0 = base;
        r.arg1 = len;
        r.arg2 = epoch_slot;
        r.kvs.emplace_back("op", static_cast<std::uint64_t>(op));
        wal_->append(r);
    }
    epoch_slot_used_[epoch_slot] = true;
    allocated_[base] = {region, task};
    fetched_.erase(task);  // a reused task id starts a fresh tally
    program_.install_task(task, region);
    return region;
}

void
AskSwitchController::release(TaskId task)
{
    auto it = allocated_.begin();
    while (it != allocated_.end() && it->second.second != task)
        ++it;
    if (it == allocated_.end())
        fail_state("release of unknown task ", task);
    if (wal_ != nullptr) {
        WalRecord r;
        r.kind = WalRecordKind::kRelease;
        r.task = task;
        r.arg0 = it->first;
        wal_->append(r);
    }
    epoch_slot_used_[it->second.first.epoch_slot] = false;
    // A future task reusing this slice starts blank on copy 0, epoch 0.
    program_.wipe_region(task);
    allocated_.erase(it);
    program_.remove_task(task);
}

void
AskSwitchController::crash()
{
    allocated_.clear();
    epoch_slot_used_.assign(epoch_slot_used_.size(), false);
    fetched_.clear();
}

std::uint32_t
AskSwitchController::recover_from_wal()
{
    ASK_ASSERT(wal_ != nullptr, "controller recovery without a WAL");
    // Throwing replay: a digest mismatch surfaces as StateError and the
    // cluster aborts the affected tasks instead of trusting the log.
    std::vector<WalRecord> records = wal_->replay();
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
    // The data plane survives a controller crash, but a switch reboot
    // may have raced the outage; restore any missing install.
    reinstall_after_reboot();
    return static_cast<std::uint32_t>(allocated_.size());
}

std::uint32_t
AskSwitchController::reinstall_after_reboot()
{
    std::uint32_t count = 0;
    for (const auto& [base, info] : allocated_) {
        if (program_.find_task(info.second) == nullptr) {
            program_.install_task(info.second, info.first);
            ++count;
        }
    }
    return count;
}

void
AskSwitchController::fence_channel(ChannelId channel, Seq next_seq)
{
    program_.fence_channel(channel, next_seq);
}

AskSwitchProgram::ProbeResult
AskSwitchController::probe_packet(ChannelId channel, Seq seq) const
{
    return program_.probe_packet(channel, seq);
}

KvStream
AskSwitchController::fetch(TaskId task, std::uint32_t copy, bool clear)
{
    KvStream out = program_.read_region(task, copy, clear);
    fetched_[task] += out.size();
    return out;
}

std::vector<std::uint64_t>
AskSwitchController::fetched_tally(TaskId task) const
{
    auto it = fetched_.find(task);
    return {it == fetched_.end() ? 0 : it->second};
}

std::uint64_t
AskSwitchController::fetch_scan_entries(TaskId task) const
{
    return program_.region_scan_entries(task);
}

std::uint32_t
AskSwitchController::current_epoch(TaskId task) const
{
    return program_.current_epoch(task);
}

std::uint32_t
AskSwitchController::free_aggregators() const
{
    std::uint32_t used = 0;
    for (const auto& [base, info] : allocated_)
        used += info.first.len;
    return capacity_ - used;
}

}  // namespace ask::core
