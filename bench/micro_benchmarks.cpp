// Microbenchmarks (google-benchmark) for the library's hot paths: datatype
// flattening, pack/unpack, file-view mapping, segment clipping, the DES
// engine, collective rendezvous, and the OST model. These measure the
// simulator's own real-time costs (not virtual time) — they bound how much
// wall clock the figure benches burn per simulated operation.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "dtype/datatype.hpp"
#include "dtype/pack.hpp"
#include "fs/ost.hpp"
#include "mpi/collectives.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/view.hpp"
#include "sim/engine.hpp"
#include "core/intermediate_view.hpp"
#include "fs/lustre.hpp"
#include "workloads/btio.hpp"
#include "workloads/tileio.hpp"

namespace {

using namespace parcoll;

void BM_SubarrayFlatten(benchmark::State& state) {
  const auto rows = state.range(0);
  const std::int64_t sizes[2] = {rows * 4, 1024};
  const std::int64_t subsizes[2] = {rows, 256};
  const std::int64_t starts[2] = {rows, 512};
  for (auto _ : state) {
    auto type = dtype::Datatype::subarray(sizes, subsizes, starts,
                                          dtype::Datatype::bytes(8));
    benchmark::DoNotOptimize(type.segments().data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SubarrayFlatten)->Arg(64)->Arg(768);

void BM_BtioFiletype(benchmark::State& state) {
  const workloads::BtIOConfig config;
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto type = config.filetype(0, nranks);
    benchmark::DoNotOptimize(type.segments().data());
  }
}
BENCHMARK(BM_BtioFiletype)->Arg(256)->Arg(1024);

void BM_Pack(benchmark::State& state) {
  const auto bytes = state.range(0);
  const dtype::Datatype type =
      dtype::Datatype::vec(bytes / 64, 1, 2, dtype::Datatype::bytes(64));
  std::vector<std::byte> memory(static_cast<std::size_t>(type.extent()));
  std::vector<std::byte> stream(static_cast<std::size_t>(bytes));
  for (auto _ : state) {
    dtype::pack(memory.data(), type, 1, stream.data());
    benchmark::DoNotOptimize(stream.data());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Pack)->Arg(1 << 12)->Arg(1 << 20);

void BM_ViewMap(benchmark::State& state) {
  const int nranks = 512;
  const auto config = workloads::TileIOConfig::paper(nranks);
  const mpiio::FileView view(0, config.elem_size, config.filetype(7, nranks));
  for (auto _ : state) {
    auto extents = view.map(0, config.rank_bytes());
    benchmark::DoNotOptimize(extents.data());
  }
}
BENCHMARK(BM_ViewMap);

void BM_SegmentClip(benchmark::State& state) {
  std::vector<dtype::Segment> segs;
  for (int i = 0; i < 1000; ++i) {
    segs.push_back(dtype::Segment{i * 100, 50});
  }
  for (auto _ : state) {
    auto clipped = dtype::clip(segs, 25'000, 75'000);
    benchmark::DoNotOptimize(clipped.data());
  }
}
BENCHMARK(BM_SegmentClip);

void BM_EngineSleepWake(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < nprocs; ++i) {
      engine.spawn([&engine] {
        for (int k = 0; k < 10; ++k) {
          engine.sleep(1e-6);
        }
      });
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * nprocs * 10);
}
BENCHMARK(BM_EngineSleepWake)->Arg(64)->Arg(1024);

void BM_CollectiveRound(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::World world(machine::MachineModel::jaguar(nprocs));
    world.run([&](mpi::Rank& self) {
      std::vector<std::uint32_t> sizes(
          static_cast<std::size_t>(self.size()), 1);
      for (int round = 0; round < 4; ++round) {
        mpi::alltoall(self, self.comm_world(), sizes);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_CollectiveRound)->Arg(64)->Arg(512);

void BM_OstServe(benchmark::State& state) {
  machine::StorageParams params;
  fs::OstModel ost(0, params);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ost.serve(0.0, 0, static_cast<int>(pos % 7), pos, pos + 4096, 4096,
                  true));
    pos += 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OstServe);

void BM_IntermediateTranslate(benchmark::State& state) {
  // Translation of a window through a many-member intermediate map.
  std::vector<core::MemberSegments> members;
  std::uint64_t inter = 0;
  for (int m = 0; m < 64; ++m) {
    core::MemberSegments member;
    member.inter_start = inter;
    for (int k = 0; k < 32; ++k) {
      member.extents.push_back(
          fs::Extent{static_cast<std::uint64_t>((k * 64 + m)) * 4096, 1024});
      inter += 1024;
    }
    members.push_back(std::move(member));
  }
  const core::IntermediateMap map(members);
  std::vector<fs::Extent> physical;
  for (auto _ : state) {
    physical.clear();
    map.translate(fs::Extent{123456, 1 << 20}, physical);
    benchmark::DoNotOptimize(physical.data());
  }
}
BENCHMARK(BM_IntermediateTranslate);

void BM_LustreCoalescedWrite(benchmark::State& state) {
  // Client-side cost of a scattered write (coalescing + reservations).
  const int pieces = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    machine::StorageParams params;
    fs::LustreSim lustre(engine, params, fs::StoreMode::Phantom);
    state.ResumeTiming();
    engine.spawn([&] {
      const int id = lustre.open("bench");
      std::vector<fs::Extent> extents;
      extents.reserve(static_cast<std::size_t>(pieces));
      for (int i = 0; i < pieces; ++i) {
        extents.push_back(
            fs::Extent{static_cast<std::uint64_t>(i) * 8192, 4096});
      }
      lustre.write(0, id, extents, nullptr);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * pieces);
}
BENCHMARK(BM_LustreCoalescedWrite)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
