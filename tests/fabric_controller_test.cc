/**
 * The control plane over several switches: one FabricController, one
 * allocation journal, one WAL per switch. Hand-wired over three
 * programs — two ToR shards (channels [0,4) and [4,8)) plus a tier
 * provisioning every channel — the shape AskCluster builds for a
 * two-rack fabric.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ask/fabric.h"
#include "ask/switch_program.h"
#include "ask/wal.h"
#include "common/logging.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace ask::core {
namespace {

AskConfig
test_config()
{
    AskConfig c;
    c.num_aas = 8;
    c.aggregators_per_aa = 64;  // 32 per shadow copy
    c.medium_groups = 2;
    c.medium_segments = 2;
    c.window = 8;
    c.max_hosts = 4;
    c.channels_per_host = 2;
    c.max_tasks = 4;
    c.swap_threshold_packets = 0;
    return c;
}

constexpr TaskId kTask = 7;

class FabricControllerTest : public ::testing::Test
{
  protected:
    FabricControllerTest() : network_(simulator_), config_(test_config())
    {
        // ToR 0 and ToR 1 each provision their rack's channel shard;
        // the tier (SwitchId 2) provisions all of them.
        const ChannelId bounds[3][2] = {{0, 4}, {4, 8}, {0, 8}};
        for (const auto& [lo, hi] : bounds) {
            switches_.push_back(std::make_unique<pisa::PisaSwitch>(
                network_, 16, pisa::kDefaultStageSramBytes));
            network_.attach(switches_.back().get());
            programs_.push_back(std::make_unique<AskSwitchProgram>(
                config_, *switches_.back(), lo, hi));
        }
        std::vector<AskSwitchProgram*> progs;
        for (auto& p : programs_)
            progs.push_back(p.get());
        controller_ = std::make_unique<FabricController>(std::move(progs));
        controller_->attach_wals(store_, nullptr);
    }

    Wal& log(std::uint32_t s)
    {
        return store_.wal(controller_wal_name(SwitchId{s}));
    }

    pisa::RegisterArray& array(std::uint32_t s, const char* name)
    {
        pisa::RegisterArray* a = switches_[s]->pipeline().find_array(name);
        EXPECT_NE(a, nullptr) << name;
        return *a;
    }

    sim::Simulator simulator_;
    net::Network network_;
    AskConfig config_;
    std::vector<std::unique_ptr<pisa::PisaSwitch>> switches_;
    std::vector<std::unique_ptr<AskSwitchProgram>> programs_;
    WalStore store_;
    std::unique_ptr<FabricController> controller_;
};

TEST_F(FabricControllerTest, AllocateInstallsOneRegionOnEverySwitch)
{
    ASSERT_EQ(controller_->num_switches(), 3u);
    auto region = controller_->allocate(kTask, 12, ReduceOp::kMax);
    ASSERT_TRUE(region.has_value());
    for (std::uint32_t s = 0; s < 3; ++s) {
        const TaskRegion* r = programs_[s]->find_task(kTask);
        ASSERT_NE(r, nullptr) << "switch " << s;
        EXPECT_EQ(r->base, region->base);
        EXPECT_EQ(r->len, region->len);
        EXPECT_EQ(r->epoch_slot, region->epoch_slot);
        EXPECT_EQ(r->op, ReduceOp::kMax);
        // One journal record per allocation, on every switch's log.
        EXPECT_EQ(log(s).records(), 1u) << log(s).name();
        EXPECT_TRUE(log(s).verify());
    }
    EXPECT_EQ(log(2).name(), "controller.s2");
    EXPECT_EQ(controller_->free_aggregators(), config_.copy_size() - 12);
    EXPECT_EQ(controller_->current_epoch(kTask), 0u);
}

TEST_F(FabricControllerTest, FenceReachesOnlyProvisioningSwitches)
{
    const Seq next = 100;
    controller_->fence_channel(1, next);  // rack 0's shard
    std::uint64_t fenced = next + config_.window - 1;
    EXPECT_EQ(array(0, "max_seq").cp_read(1), fenced);  // ToR 0: index 1
    EXPECT_EQ(array(2, "max_seq").cp_read(1), fenced);  // tier: index 1
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(array(1, "max_seq").cp_read(i), 0u) << "ToR 1 index " << i;

    controller_->fence_channel(6, next);  // rack 1's shard
    EXPECT_EQ(array(1, "max_seq").cp_read(2), fenced);  // 6 - lo(4)
    EXPECT_EQ(array(2, "max_seq").cp_read(6), fenced);
    for (std::size_t i = 0; i < 4; ++i) {
        if (i != 1) {
            EXPECT_EQ(array(0, "max_seq").cp_read(i), 0u)
                << "ToR 0 index " << i;
        }
    }
}

TEST_F(FabricControllerTest, ReleaseWipesAndUnbindsEverywhere)
{
    auto region = controller_->allocate(kTask, 8);
    ASSERT_TRUE(region.has_value());
    std::uint32_t copy = config_.copy_size();
    for (std::uint32_t s = 0; s < 3; ++s) {
        array(s, "aa_0").cp_write(region->base, 0xabcdULL << 32 | 5);
        array(s, "aa_3").cp_write(copy + region->base + 7, 0x1234ULL << 32 | 9);
    }
    controller_->release(kTask);
    for (std::uint32_t s = 0; s < 3; ++s) {
        EXPECT_EQ(programs_[s]->find_task(kTask), nullptr) << "switch " << s;
        EXPECT_EQ(array(s, "aa_0").cp_read(region->base), 0u);
        EXPECT_EQ(array(s, "aa_3").cp_read(copy + region->base + 7), 0u);
        EXPECT_EQ(log(s).records(), 2u) << log(s).name();
    }
    EXPECT_EQ(controller_->free_aggregators(), copy);
    EXPECT_FALSE(controller_->current_epoch(kTask).has_value());
    EXPECT_THROW(controller_->release(kTask), StateError);
}

TEST_F(FabricControllerTest, RecoveryRebuildsTheJournalAndReinstalls)
{
    auto region = controller_->allocate(kTask, 8);
    ASSERT_TRUE(region.has_value());
    controller_->crash();
    programs_[0]->on_reboot();  // a ToR reboot raced the outage
    EXPECT_EQ(controller_->free_aggregators(), config_.copy_size());

    EXPECT_EQ(controller_->recover_from_wal(), 1u);
    EXPECT_EQ(controller_->free_aggregators(), config_.copy_size() - 8);
    ASSERT_NE(programs_[0]->find_task(kTask), nullptr);
    EXPECT_EQ(programs_[0]->find_task(kTask)->base, region->base);
    // The rebuilt journal owns the region again: it releases cleanly.
    controller_->release(kTask);
    for (std::uint32_t s = 0; s < 3; ++s)
        EXPECT_EQ(programs_[s]->find_task(kTask), nullptr);
}

TEST_F(FabricControllerTest, CorruptSwitchLogRejectsRecoveryWithNothingRebuilt)
{
    ASSERT_TRUE(controller_->allocate(kTask, 8).has_value());
    controller_->crash();
    programs_[0]->on_reboot();
    log(2).flip_byte(10);  // media corruption in controller.s2 only

    EXPECT_THROW(controller_->recover_from_wal(), StateError);
    // Nothing rebuilt: the journal stays empty and the rebooted ToR
    // got no binding back, although logs 0 and 1 are intact.
    EXPECT_TRUE(log(0).verify());
    EXPECT_EQ(controller_->free_aggregators(), config_.copy_size());
    EXPECT_EQ(programs_[0]->find_task(kTask), nullptr);
    EXPECT_THROW(controller_->release(kTask), StateError);
}

TEST_F(FabricControllerTest, ToRMidRebootCountsZeroScanEntries)
{
    ASSERT_TRUE(controller_->allocate(kTask, 8).has_value());
    std::uint64_t per_switch = 8ULL * config_.num_aas;
    EXPECT_EQ(controller_->fetch_scan_entries(kTask), 3 * per_switch);

    programs_[0]->on_reboot();  // ToR 0's task table is empty
    EXPECT_EQ(controller_->fetch_scan_entries(kTask), 2 * per_switch);
    // Switch 0 answers the epoch query; mid-reboot it has no binding.
    EXPECT_FALSE(controller_->current_epoch(kTask).has_value());

    EXPECT_EQ(controller_->reinstall_after_reboot(), 1u);
    EXPECT_EQ(controller_->fetch_scan_entries(kTask), 3 * per_switch);
    EXPECT_EQ(controller_->current_epoch(kTask), 0u);
}

TEST_F(FabricControllerTest, FetchTalliesEachSwitch)
{
    auto region = controller_->allocate(kTask, 8);
    ASSERT_TRUE(region.has_value());
    // One short-key aggregator on ToR 1 and two on the tier.
    array(1, "aa_0").cp_write(region->base, 1ULL << 32 | 3);
    array(2, "aa_0").cp_write(region->base + 1, 2ULL << 32 | 4);
    array(2, "aa_1").cp_write(region->base, 3ULL << 32 | 5);

    KvStream fetched = controller_->fetch(kTask, 0, /*clear=*/true);
    EXPECT_EQ(fetched.size(), 3u);
    EXPECT_EQ(controller_->fetched_tally(kTask),
              (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(controller_->fetched_tally(kTask + 1),
              (std::vector<std::uint64_t>{0, 0, 0}));
    // The tally survives release, and a re-allocation starts afresh.
    controller_->release(kTask);
    EXPECT_EQ(controller_->fetched_tally(kTask)[2], 2u);
    ASSERT_TRUE(controller_->allocate(kTask, 8).has_value());
    EXPECT_EQ(controller_->fetched_tally(kTask),
              (std::vector<std::uint64_t>{0, 0, 0}));
}

}  // namespace
}  // namespace ask::core
