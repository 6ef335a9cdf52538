// Adaptive group selection (parcoll_num_groups = auto) and the
// romio_cb_write hint, plus the Flash plotfile configurations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/file_area.hpp"
#include "core/parcoll.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/pattern.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

using core::kAutoGroups;
using core::PartitionMode;
using core::RankAccess;

std::vector<RankAccess> serial_ranks(int n, std::uint64_t bytes) {
  std::vector<RankAccess> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(RankAccess{static_cast<std::uint64_t>(r) * bytes,
                               static_cast<std::uint64_t>(r + 1) * bytes,
                               bytes});
  }
  return ranks;
}

std::vector<RankAccess> scattered_ranks(int n, std::uint64_t file_bytes) {
  std::vector<RankAccess> ranks;
  for (int r = 0; r < n; ++r) {
    ranks.push_back(RankAccess{static_cast<std::uint64_t>(r) * 8,
                               file_bytes - static_cast<std::uint64_t>(n - r) * 8,
                               file_bytes / n});
  }
  return ranks;
}

TEST(AutoGroups, SerialPatternTakesEveryCleanSplitUpToMinSize) {
  const auto plan =
      core::partition_file_areas(serial_ranks(32, 1000), kAutoGroups, 4, true);
  EXPECT_EQ(plan.mode, PartitionMode::Direct);
  EXPECT_EQ(plan.num_groups, 8);  // 32 ranks / min size 4
}

TEST(AutoGroups, ScatteredPatternPicksSqrtP) {
  const auto plan = core::partition_file_areas(scattered_ranks(64, 1 << 20),
                                               kAutoGroups, 2, true);
  EXPECT_EQ(plan.mode, PartitionMode::Intermediate);
  EXPECT_EQ(plan.num_groups, 8);  // sqrt(64)
}

TEST(AutoGroups, ScatteredWithoutViewSwitchStaysSingle) {
  const auto plan = core::partition_file_areas(scattered_ranks(64, 1 << 20),
                                               kAutoGroups, 2, false);
  EXPECT_EQ(plan.mode, PartitionMode::SingleGroup);
}

TEST(AutoGroups, MinGroupSizeStillCaps) {
  const auto plan =
      core::partition_file_areas(serial_ranks(16, 100), kAutoGroups, 8, true);
  EXPECT_EQ(plan.num_groups, 2);
}

TEST(AutoGroups, TileIoAutoMatchesTheFig7SweetSpot) {
  // At 128 ranks with 8-wide tiles there are 16 tile rows: auto should use
  // all 16 clean splits (min group size 8 -> cap 16).
  const auto config = workloads::TileIOConfig::paper(128);
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = kAutoGroups;
  spec.byte_true = false;
  const auto result = workloads::run_tileio(config, 128, spec, true);
  EXPECT_EQ(result.stats.last_num_groups, 16);
  EXPECT_EQ(result.stats.view_switches, 0u);  // direct mode

  workloads::RunSpec base;
  base.impl = workloads::Impl::Ext2ph;
  base.byte_true = false;
  const auto baseline = workloads::run_tileio(config, 128, base, true);
  EXPECT_GT(result.bandwidth(), 2.0 * baseline.bandwidth());
}

TEST(AutoGroups, BtioAutoUsesSqrtPIntermediateGroups) {
  workloads::BtIOConfig config;
  config.grid = 24;
  config.nsteps = 1;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = kAutoGroups;
  spec.min_group_size = 2;
  spec.byte_true = false;
  const auto result = workloads::run_btio(config, 16, spec, true);
  EXPECT_EQ(result.stats.last_num_groups, 4);  // sqrt(16)
  EXPECT_EQ(result.stats.view_switches, 1u);
}

TEST(AutoGroups, HintStringAutoParses) {
  mpiio::Hints hints;
  hints.set("parcoll_num_groups", "auto");
  EXPECT_EQ(hints.parcoll_num_groups, kAutoGroups);
}

TEST(CbWrite, HintRoundTrips) {
  mpiio::Hints hints;
  EXPECT_TRUE(hints.cb_write_enabled);
  hints.set("romio_cb_write", "disable");
  EXPECT_FALSE(hints.cb_write_enabled);
  EXPECT_EQ(hints.get("romio_cb_write"), "disable");
  hints.set("romio_cb_write", "enable");
  EXPECT_TRUE(hints.cb_write_enabled);
  EXPECT_THROW(hints.set("romio_cb_write", "maybe"), std::invalid_argument);
}

/// With collective buffering disabled the call is served by data sieving,
/// with or without the ParColl hints, so it never counts as a ParColl call.
TEST(CbWrite, DisabledCollectiveStillWritesCorrectBytes) {
  for (const int groups : {0, 2}) {
    SCOPED_TRACE(groups == 0 ? "ext2ph hints" : "parcoll hints");
    mpi::World world(machine::MachineModel::jaguar(4));
    mpiio::Hints hints;
    hints.cb_write_enabled = false;
    hints.parcoll_num_groups = groups;
    hints.parcoll_min_group_size = 2;
    bool ok = true;
    std::uint64_t parcoll_calls = 1;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "nocb.dat", hints);
      const auto slot =
          dtype::Datatype::resized(dtype::Datatype::bytes(64), 0, 256);
      file.set_view(static_cast<std::uint64_t>(self.rank()) * 64, 64, slot);
      const std::uint64_t bytes = 8 * 64;
      const auto extents = file.view().map(0, bytes);
      std::vector<std::byte> data(bytes);
      const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
      workloads::fill_buffer_for_extents(data.data(), memtype, 1, extents, 31);
      core::write_at_all(file, 0, data.data(), 1, memtype);
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) parcoll_calls = file.stats().parcoll_calls;
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      ok = ok && store &&
           workloads::verify_store(*store, file.fs_id(), extents, 31);
      // And the read path with cb disabled.
      std::vector<std::byte> back(bytes);
      core::read_at_all(file, 0, back.data(), 1, memtype);
      ok = ok && workloads::check_buffer_for_extents(back.data(), memtype, 1,
                                                     extents, 31);
      file.close();
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(parcoll_calls, 0u);
  }
}

TEST(CbWrite, DisabledIsSlowerForInterleavedPatterns) {
  const auto run = [](bool cb) {
    workloads::FlashConfig config;
    config.nxb = 8;
    config.nguard = 1;
    config.nblocks = 4;
    config.nvars = 2;
    mpi::World world(machine::MachineModel::jaguar(16), /*byte_true=*/false);
    mpiio::Hints hints;
    hints.cb_write_enabled = cb;
    double elapsed = 0;
    world.run([&](mpi::Rank& self) {
      mpiio::FileHandle file(self, self.comm_world(), "cbcmp.dat", hints);
      file.set_view(0, config.zone_bytes(),
                    config.filetype(self.rank(), 16));
      const auto memtype = config.block_memtype();
      const double t0 = self.now();
      core::write_at_all(file, 0, nullptr,
                         static_cast<std::uint64_t>(config.nblocks), memtype);
      mpi::barrier(self, self.comm_world());
      if (self.rank() == 0) elapsed = self.now() - t0;
      file.close();
    });
    return elapsed;
  };
  EXPECT_GT(run(false), run(true));
}

TEST(FlashPlotfiles, ConfigurationsMatchTheBenchmark) {
  const auto centered = workloads::FlashConfig::plotfile_centered();
  EXPECT_EQ(centered.zone_bytes(), 4u);
  EXPECT_EQ(centered.nvars, 4);
  EXPECT_EQ(centered.block_side(), 32);
  EXPECT_EQ(centered.block_memtype().size(), centered.block_bytes());
  const auto corner = workloads::FlashConfig::plotfile_corner();
  EXPECT_EQ(corner.block_side(), 33);
  EXPECT_EQ(corner.block_bytes(), 33ull * 33 * 33 * 4);
}

TEST(FlashPlotfiles, CenteredPlotfileWritesVerify) {
  auto config = workloads::FlashConfig::plotfile_centered();
  config.nxb = 4;
  config.nblocks = 3;
  config.nvars = 2;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = 2;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  const auto result = workloads::run_flashio(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
}

TEST(FlashPlotfiles, CornerPlotfileWritesVerify) {
  auto config = workloads::FlashConfig::plotfile_corner();
  config.nxb = 4;
  config.nblocks = 2;
  config.nvars = 2;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::Ext2ph;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  const auto result = workloads::run_flashio(config, 8, spec, true);
  EXPECT_TRUE(result.verified);
}

TEST(FlashPlotfiles, PlotfilesAreSmallerThanCheckpoints) {
  const auto checkpoint = workloads::FlashConfig::checkpoint();
  const auto plot = workloads::FlashConfig::plotfile_centered();
  EXPECT_LT(plot.checkpoint_bytes(128), checkpoint.checkpoint_bytes(128) / 10);
}

}  // namespace
}  // namespace parcoll
