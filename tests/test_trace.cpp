// Execution tracing: interval capture, CSV export, Gantt rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "core/parcoll.hpp"
#include "mpi/collectives.hpp"
#include "mpi/trace.hpp"
#include "mpiio/file.hpp"

namespace parcoll::mpi {
namespace {

/// The tracer's Phase leaves, in recording order.
std::vector<obs::Span> phases(const Tracer& tracer) {
  std::vector<obs::Span> leaves;
  for (const obs::Span& span : tracer.spans().spans()) {
    if (span.kind == obs::SpanKind::Phase) leaves.push_back(span);
  }
  return leaves;
}

TEST(Trace, RecordsBusyIntervals) {
  World world(machine::MachineModel::jaguar(2));
  auto& tracer = world.enable_tracing();
  world.run([&](Rank& self) {
    self.busy(TimeCat::Compute, 0.5);
    if (self.rank() == 1) self.busy(TimeCat::IO, 0.25);
  });
  const auto leaves = phases(tracer);
  ASSERT_EQ(leaves.size(), 3u);
  const auto& first = leaves[0];
  EXPECT_EQ(first.cat, TimeCat::Compute);
  EXPECT_DOUBLE_EQ(first.begin, 0.0);
  EXPECT_DOUBLE_EQ(first.end, 0.5);
  const auto& io = leaves[2];
  EXPECT_EQ(io.rank, 1);
  EXPECT_EQ(io.cat, TimeCat::IO);
  EXPECT_DOUBLE_EQ(io.begin, 0.5);
  EXPECT_DOUBLE_EQ(io.end, 0.75);
}

TEST(Trace, CapturesCollectiveWaits) {
  World world(machine::MachineModel::jaguar(4));
  auto& tracer = world.enable_tracing();
  world.run([&](Rank& self) {
    if (self.rank() == 3) self.busy(TimeCat::Compute, 1.0);
    barrier(self, self.comm_world());
  });
  // Ranks 0..2 each have a ~1 s Sync interval ending at the barrier.
  int syncs = 0;
  for (const auto& event : phases(tracer)) {
    if (event.cat == TimeCat::Sync && event.end - event.begin > 0.9) {
      ++syncs;
    }
  }
  EXPECT_EQ(syncs, 3);
}

TEST(Trace, ZeroLengthIntervalsAreDropped) {
  Tracer tracer;
  tracer.record(0, TimeCat::Sync, 1.0, 1.0);
  tracer.record(0, TimeCat::Sync, 1.0, 0.5);
  EXPECT_TRUE(phases(tracer).empty());
}

TEST(Trace, CsvHasHeaderAndRows) {
  Tracer tracer;
  tracer.record(2, TimeCat::IO, 0.25, 0.75);
  std::ostringstream os;
  tracer.write_csv(os);
  EXPECT_EQ(os.str(), "rank,category,begin,end\n2,io,0.25,0.75\n");
}

TEST(Trace, GanttShowsDominantCategoryPerBin) {
  Tracer tracer;
  tracer.record(0, TimeCat::Compute, 0.0, 1.0);
  tracer.record(0, TimeCat::Sync, 1.0, 2.0);
  tracer.record(1, TimeCat::IO, 0.0, 2.0);
  const std::string chart = tracer.gantt(/*width=*/4, /*max_ranks=*/4);
  EXPECT_NE(chart.find("cc"), std::string::npos);   // rank 0 first half
  EXPECT_NE(chart.find("SS"), std::string::npos);   // rank 0 second half
  EXPECT_NE(chart.find("IIII"), std::string::npos); // rank 1 throughout
}

TEST(Trace, GanttTruncatesRanksAndHandlesEmpty) {
  Tracer tracer;
  EXPECT_NE(tracer.gantt().find("no trace events"), std::string::npos);
  for (int r = 0; r < 8; ++r) {
    tracer.record(r, TimeCat::Compute, 0, 1);
  }
  const std::string chart = tracer.gantt(10, /*max_ranks=*/4);
  EXPECT_NE(chart.find("+4 more ranks"), std::string::npos);
}

TEST(Trace, EndToEndCollectiveWriteProducesAllCategories) {
  World world(machine::MachineModel::jaguar(8));
  auto& tracer = world.enable_tracing();
  world.run([&](Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "trace.dat");
    std::vector<std::byte> data(4096);
    core::write_at_all(file, static_cast<std::uint64_t>(self.rank()) * 4096,
                       data.data(), 1, dtype::Datatype::bytes(4096));
    file.close();
  });
  bool has[kNumTimeCats] = {};
  for (const auto& event : phases(tracer)) {
    has[static_cast<std::size_t>(event.cat)] = true;
  }
  EXPECT_TRUE(has[static_cast<std::size_t>(TimeCat::Compute)]);
  EXPECT_TRUE(has[static_cast<std::size_t>(TimeCat::P2P)]);
  EXPECT_TRUE(has[static_cast<std::size_t>(TimeCat::Sync)]);
  EXPECT_TRUE(has[static_cast<std::size_t>(TimeCat::IO)]);
}

}  // namespace
}  // namespace parcoll::mpi
