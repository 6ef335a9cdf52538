// Intermediate file views: translation correctness and the translated
// IoTarget used for pattern (c).
#include <gtest/gtest.h>

#include "core/intermediate_view.hpp"
#include "mpi/runtime.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::core {
namespace {

IntermediateMap two_member_map() {
  // Member A at intermediate [0, 30): physical {0,10},{100,20}.
  // Member B at intermediate [30, 60): physical {50,15},{200,15}.
  std::vector<MemberSegments> members;
  members.push_back(MemberSegments{0, {{0, 10}, {100, 20}}});
  members.push_back(MemberSegments{30, {{50, 15}, {200, 15}}});
  return IntermediateMap(std::move(members));
}

TEST(IntermediateMap, TotalBytes) {
  EXPECT_EQ(two_member_map().total_bytes(), 60u);
}

TEST(IntermediateMap, TranslateWithinOneSegment) {
  const auto map = two_member_map();
  const auto physical = map.translate(fs::Extent{2, 5});
  ASSERT_EQ(physical.size(), 1u);
  EXPECT_EQ(physical[0], (fs::Extent{2, 5}));
}

TEST(IntermediateMap, TranslateAcrossSegmentsOfOneMember) {
  const auto map = two_member_map();
  const auto physical = map.translate(fs::Extent{5, 10});
  ASSERT_EQ(physical.size(), 2u);
  EXPECT_EQ(physical[0], (fs::Extent{5, 5}));    // tail of {0,10}
  EXPECT_EQ(physical[1], (fs::Extent{100, 5}));  // head of {100,20}
}

TEST(IntermediateMap, TranslateAcrossMembers) {
  const auto map = two_member_map();
  const auto physical = map.translate(fs::Extent{25, 15});
  // Intermediate [25,30) = member A's {100,20} tail: {115,5}.
  // Intermediate [30,40) = member B's {50,15} head: {50,10}.
  ASSERT_EQ(physical.size(), 2u);
  EXPECT_EQ(physical[0], (fs::Extent{115, 5}));
  EXPECT_EQ(physical[1], (fs::Extent{50, 10}));
}

TEST(IntermediateMap, TranslateWholeSpace) {
  const auto map = two_member_map();
  const auto physical = map.translate(fs::Extent{0, 60});
  ASSERT_EQ(physical.size(), 4u);
  EXPECT_EQ(physical[3], (fs::Extent{200, 15}));
}

TEST(IntermediateMap, EmptyExtentTranslatesToNothing) {
  EXPECT_TRUE(two_member_map().translate(fs::Extent{10, 0}).empty());
}

TEST(IntermediateMap, OutOfRangeThrows) {
  EXPECT_THROW(two_member_map().translate(fs::Extent{50, 20}),
               std::out_of_range);
}

TEST(IntermediateMap, NonContiguousMembersRejected) {
  std::vector<MemberSegments> members;
  members.push_back(MemberSegments{0, {{0, 10}}});
  members.push_back(MemberSegments{20, {{50, 10}}});  // gap at [10,20)
  EXPECT_THROW(IntermediateMap(std::move(members)), std::invalid_argument);
}

TEST(IntermediateMap, MembersWithNoDataAreSkipped) {
  std::vector<MemberSegments> members;
  members.push_back(MemberSegments{0, {{0, 10}}});
  members.push_back(MemberSegments{10, {}});  // empty member
  members.push_back(MemberSegments{10, {{40, 10}}});
  const IntermediateMap map(std::move(members));
  const auto physical = map.translate(fs::Extent{5, 10});
  ASSERT_EQ(physical.size(), 2u);
  EXPECT_EQ(physical[1], (fs::Extent{40, 5}));
}

TEST(IntermediateTarget, WriteLandsAtPhysicalOffsets) {
  mpi::World world(machine::MachineModel::jaguar(1));
  bool ok = false;
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    const int fs_id = fs.open("imap.dat", 4, 64);
    std::vector<MemberSegments> members;
    members.push_back(MemberSegments{0, {{100, 8}, {300, 8}}});
    mpiio::DirectTarget direct(fs, fs_id);
    IntermediateTarget target(
        direct, std::make_shared<const IntermediateMap>(std::move(members)));

    // Writing intermediate [0,16) must hit physical {100,8} and {300,8}.
    const std::vector<fs::Extent> inter{{0, 16}};
    const std::vector<fs::Extent> physical{{100, 8}, {300, 8}};
    std::vector<std::byte> data(16);
    workloads::fill_stream(data.data(), physical, 5);
    target.write(self, inter, data.data());

    auto* store = dynamic_cast<fs::MemoryStore*>(&fs.store());
    ok = store && workloads::verify_store(*store, fs_id, physical, 5);

    // And reading intermediate coordinates returns the same stream.
    std::vector<std::byte> back(16);
    target.read(self, inter, back.data());
    ok = ok && workloads::check_stream(back.data(), physical, 5);
  });
  EXPECT_TRUE(ok);
}

TEST(IntermediateTarget, ChargesIoTime) {
  mpi::World world(machine::MachineModel::jaguar(1));
  world.run([&](mpi::Rank& self) {
    auto& fs = self.world().fs();
    const int fs_id = fs.open("io-time.dat");
    std::vector<MemberSegments> members;
    members.push_back(MemberSegments{0, {{0, 1 << 20}}});
    mpiio::DirectTarget direct(fs, fs_id);
    IntermediateTarget target(
        direct, std::make_shared<const IntermediateMap>(std::move(members)));
    const std::vector<fs::Extent> inter{{0, 1 << 20}};
    std::vector<std::byte> data(1 << 20);
    target.write(self, inter, data.data());
    EXPECT_GT(self.times().breakdown()[mpi::TimeCat::IO], 0.0);
  });
}

}  // namespace
}  // namespace parcoll::core
