// Workload generators: byte-true runs of IOR, MPI-Tile-IO, BT-IO and
// Flash I/O at small scale, across every I/O implementation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "workloads/btio.hpp"
#include "workloads/flashio.hpp"
#include "workloads/ior.hpp"
#include "workloads/tileio.hpp"

namespace parcoll::workloads {
namespace {

RunSpec byte_true_spec(Impl impl, int groups = 0) {
  RunSpec spec;
  spec.impl = impl;
  spec.parcoll_groups = groups;
  spec.min_group_size = 2;
  spec.byte_true = true;
  spec.cb_buffer_size = 4096;
  return spec;
}

TileIOConfig small_tileio() {
  TileIOConfig config;
  config.tiles_x = 4;
  config.tile_w = 16;
  config.tile_h = 8;
  config.elem_size = 8;
  return config;
}

IorConfig small_ior() {
  IorConfig config;
  config.block_size = 64 << 10;
  config.xfer_size = 16 << 10;
  return config;
}

BtIOConfig small_btio() {
  BtIOConfig config;
  config.grid = 12;
  config.nsteps = 2;
  return config;
}

FlashConfig small_flash() {
  FlashConfig config;
  config.nxb = 4;
  config.nguard = 1;
  config.nblocks = 3;
  config.nvars = 4;
  return config;
}

class WorkloadImplTest
    : public ::testing::TestWithParam<std::tuple<std::string, Impl, int>> {};

TEST_P(WorkloadImplTest, WriteVerifies) {
  const auto [workload, impl, groups] = GetParam();
  const RunSpec spec = byte_true_spec(impl, groups);
  RunResult result;
  if (workload == "tileio") {
    result = run_tileio(small_tileio(), 8, spec, /*write=*/true);
  } else if (workload == "ior") {
    result = run_ior(small_ior(), 8, spec, /*write=*/true);
  } else if (workload == "btio") {
    result = run_btio(small_btio(), 9, spec, /*write=*/true);
  } else {
    result = run_flashio(small_flash(), 8, spec, /*write=*/true);
  }
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.elapsed, 0.0);
  EXPECT_GT(result.bandwidth(), 0.0);
}

TEST_P(WorkloadImplTest, ReadVerifies) {
  const auto [workload, impl, groups] = GetParam();
  const RunSpec spec = byte_true_spec(impl, groups);
  RunResult result;
  if (workload == "tileio") {
    result = run_tileio(small_tileio(), 8, spec, /*write=*/false);
  } else if (workload == "ior") {
    result = run_ior(small_ior(), 8, spec, /*write=*/false);
  } else if (workload == "btio") {
    result = run_btio(small_btio(), 9, spec, /*write=*/false);
  } else {
    result = run_flashio(small_flash(), 8, spec, /*write=*/false);
  }
  EXPECT_TRUE(result.verified);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllImpls, WorkloadImplTest,
    ::testing::Values(
        std::make_tuple("tileio", Impl::PosixIndependent, 0),
        std::make_tuple("tileio", Impl::Independent, 0),
        std::make_tuple("tileio", Impl::Ext2ph, 0),
        std::make_tuple("tileio", Impl::ParColl, 2),
        std::make_tuple("tileio", Impl::ParColl, 4),
        std::make_tuple("ior", Impl::Independent, 0),
        std::make_tuple("ior", Impl::Ext2ph, 0),
        std::make_tuple("ior", Impl::ParColl, 4),
        std::make_tuple("btio", Impl::Ext2ph, 0),
        std::make_tuple("btio", Impl::ParColl, 3),
        std::make_tuple("flash", Impl::PosixIndependent, 0),
        std::make_tuple("flash", Impl::Ext2ph, 0),
        std::make_tuple("flash", Impl::ParColl, 4)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         std::string(to_string(std::get<1>(info.param))) +
                         "_G" + std::to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(TileIO, GeometryMatchesPaperParameters) {
  const TileIOConfig config = TileIOConfig::paper(512);
  EXPECT_EQ(config.tiles_x, 8);
  EXPECT_EQ(config.tiles_y(512), 64);
  EXPECT_EQ(config.rank_bytes(), 48ull << 20);          // 48 MB per process
  EXPECT_EQ(config.file_bytes(512), 512 * (48ull << 20));  // 48*N MB
}

TEST(TileIO, FiletypeCoversExactlyTheTile) {
  const auto config = small_tileio();
  const auto type = config.filetype(5, 8);  // tile (1,1) of 4x2 grid
  EXPECT_EQ(type.size(), config.rank_bytes());
  EXPECT_EQ(static_cast<std::uint64_t>(type.extent()), config.file_bytes(8));
  EXPECT_EQ(type.segments().size(), config.tile_h);  // one run per tile row
  EXPECT_TRUE(type.monotone());
}

TEST(TileIO, BadGridRejected) {
  TileIOConfig config = small_tileio();
  config.tiles_x = 3;  // does not divide 8
  EXPECT_THROW(config.filetype(0, 8), std::invalid_argument);
}

TEST(Ior, ConfigArithmetic) {
  const IorConfig config;  // paper defaults
  EXPECT_EQ(config.block_size, 512ull << 20);
  EXPECT_EQ(config.xfer_size, 4ull << 20);
  EXPECT_EQ(config.transfers(), 128u);
  EXPECT_EQ(config.file_bytes(512), 256ull << 30);
}

TEST(BtIO, RankBytesSumToStep) {
  const auto config = small_btio();
  for (int nranks : {4, 9}) {
    std::uint64_t total = 0;
    for (int r = 0; r < nranks; ++r) {
      total += config.rank_bytes(r, nranks);
    }
    EXPECT_EQ(total, config.step_bytes());
  }
}

TEST(BtIO, FiletypesPartitionTheCube) {
  // Each byte of the step must belong to exactly one rank.
  const auto config = small_btio();
  const int nranks = 4;
  std::vector<int> owner(config.step_bytes(), -1);
  for (int r = 0; r < nranks; ++r) {
    const auto type = config.filetype(r, nranks);
    for (const auto& seg : type.segments()) {
      for (std::uint64_t i = 0; i < seg.length; ++i) {
        const auto pos = static_cast<std::size_t>(seg.disp) + i;
        EXPECT_EQ(owner[pos], -1) << "byte " << pos << " double-owned";
        owner[pos] = r;
      }
    }
  }
  for (std::size_t pos = 0; pos < owner.size(); ++pos) {
    EXPECT_NE(owner[pos], -1) << "byte " << pos << " unowned";
  }
}

TEST(BtIO, FiletypeSegmentsAscendOnClassGrids) {
  // The rows come out in file order, unsorted, as a file view needs them.
  for (const int grid : {64, 102, 162}) {
    for (const int nranks : {4, 16, 64, 256}) {
      BtIOConfig config;
      config.grid = grid;
      for (int rank = 0; rank < nranks; ++rank) {
        const auto type = config.filetype(rank, nranks);
        const auto& segs = type.segments();
        for (std::size_t i = 1; i < segs.size(); ++i) {
          ASSERT_LT(segs[i - 1].end(), segs[i].disp)
              << "grid " << grid << " P " << nranks << " rank " << rank;
        }
        EXPECT_TRUE(type.monotone());
        EXPECT_EQ(type.size(), config.rank_bytes(rank, nranks));
      }
    }
  }
}

TEST(BtIO, ScatteredAcrossWholeStep) {
  // Diagonal multipartitioning: every rank's range spans most of the cube,
  // so no clean FA split exists (the paper's pattern c).
  const auto config = small_btio();
  const auto type = config.filetype(0, 9);
  const auto& segs = type.segments();
  EXPECT_LT(segs.front().disp, static_cast<std::int64_t>(config.step_bytes()) / 4);
  EXPECT_GT(segs.back().end(), static_cast<std::int64_t>(config.step_bytes()) * 3 / 4);
}

TEST(BtIO, NonSquareRankCountRejected) {
  const auto config = small_btio();
  EXPECT_THROW(config.filetype(0, 8), std::invalid_argument);
}

TEST(Flash, PaperScaleArithmetic) {
  const FlashConfig config;  // paper defaults
  EXPECT_EQ(config.block_bytes(), 32ull * 32 * 32 * 8);
  EXPECT_EQ(config.rank_var_bytes(), 80 * config.block_bytes());
  // ~60.8 GB at 128 procs, ~486 GB at 1024 (paper §5.4).
  EXPECT_NEAR(static_cast<double>(config.checkpoint_bytes(128)) / 1e9, 64.4,
              4.0);
  EXPECT_NEAR(static_cast<double>(config.checkpoint_bytes(1024)) / 1e9, 515.4,
              32.0);
}

TEST(Flash, MemtypeSelectsInteriorZones) {
  const auto config = small_flash();
  const auto type = config.block_memtype();
  EXPECT_EQ(type.size(), config.block_bytes());
  const auto guarded = static_cast<std::uint64_t>(config.nxb + 2 * config.nguard);
  EXPECT_EQ(static_cast<std::uint64_t>(type.extent()),
            guarded * guarded * guarded * 8);
  EXPECT_EQ(type.segments().size(),
            static_cast<std::size_t>(config.nxb) * config.nxb);
}

TEST(Runner, HintsReflectSpec) {
  RunSpec spec;
  spec.impl = Impl::ParColl;
  spec.parcoll_groups = 16;
  spec.cb_nodes = 64;
  spec.cb_buffer_size = 1 << 20;
  const auto hints = spec.hints();
  EXPECT_EQ(hints.parcoll_num_groups, 16);
  EXPECT_EQ(hints.cb_nodes, 64);
  EXPECT_EQ(hints.cb_buffer_size, 1u << 20);
  spec.impl = Impl::Ext2ph;
  EXPECT_EQ(spec.hints().parcoll_num_groups, 0);  // groups only under ParColl
}

TEST(Runner, DeterministicAcrossRepeats) {
  const auto spec = byte_true_spec(Impl::ParColl, 4);
  const auto a = run_tileio(small_tileio(), 8, spec, true);
  const auto b = run_tileio(small_tileio(), 8, spec, true);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_DOUBLE_EQ(a.sum.total(), b.sum.total());
}

}  // namespace
}  // namespace parcoll::workloads
