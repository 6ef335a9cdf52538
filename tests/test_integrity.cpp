// End-to-end data integrity: the checksum pipeline, scrub-and-repair, and
// collective error agreement.
//
// Layers under test:
//  - crc32c itself (known vectors, incremental chaining).
//  - IntegrityManager in isolation: block registration, store verification
//    at Detect vs Repair, partial-overwrite record splitting, buffer
//    healing, registrations without bytes (counted, never recorded),
//    per-file counts, and the per-file pending-error word the collective
//    agreement reduces.
//  - Per-file counts end to end: phantom bb decay and one-file-per-rank
//    BT-IO report each outcome and block in the file that owns it.
//  - The planted-bug contrast that gates this feature: an injected silent
//    corruption must change the stored bytes when checksums are off, and
//    must never survive when integrity=repair is on.
//  - Retry exhaustion: with every retransmit corrupted, recovery runs out
//    deterministically and every rank of the communicator throws the
//    identical CollectiveIoError carrying the failing extent; another
//    file's calls never throw it, and under ParColl another subgroup's
//    calls never throw it either (close throws it on every rank).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/file_area.hpp"
#include "core/parcoll.hpp"
#include "fault/fault.hpp"
#include "fs/integrity.hpp"
#include "fs/object_store.hpp"
#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/btio.hpp"
#include "workloads/ior.hpp"
#include "workloads/pattern.hpp"
#include "workloads/tileio.hpp"

namespace parcoll {
namespace {

constexpr std::uint64_t kSalt = 0xC4;

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned salt = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131 + salt) & 0xFF);
  }
  return out;
}

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

TEST(Crc32c, MatchesKnownVectors) {
  // The iSCSI / RFC 3720 check value.
  const auto check = bytes_of("123456789");
  EXPECT_EQ(fs::crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(fs::crc32c(nullptr, 0), 0u);
  // 32 zero bytes, another standard vector.
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(fs::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, ChainsIncrementally) {
  const auto data = pattern_bytes(1000);
  const std::uint32_t whole = fs::crc32c(data.data(), data.size());
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{500}, std::size_t{999}}) {
    const std::uint32_t head = fs::crc32c(data.data(), split);
    EXPECT_EQ(fs::crc32c(data.data() + split, data.size() - split, head),
              whole)
        << "split at " << split;
  }
}

TEST(IntegrityLevel, ParsesAndRendersAllLevels) {
  using fs::IntegrityLevel;
  EXPECT_EQ(fs::parse_integrity_level("off"), IntegrityLevel::Off);
  EXPECT_EQ(fs::parse_integrity_level("disable"), IntegrityLevel::Off);
  EXPECT_EQ(fs::parse_integrity_level("detect"), IntegrityLevel::Detect);
  EXPECT_EQ(fs::parse_integrity_level("repair"), IntegrityLevel::Repair);
  EXPECT_EQ(fs::parse_integrity_level("enable"), IntegrityLevel::Repair);
  EXPECT_THROW(static_cast<void>(fs::parse_integrity_level("paranoid")),
               std::invalid_argument);
  for (const auto level : {IntegrityLevel::Off, IntegrityLevel::Detect,
                           IntegrityLevel::Repair}) {
    EXPECT_EQ(fs::parse_integrity_level(fs::to_string(level)), level);
  }
}

// ---------------------------------------------------------------------------
// IntegrityManager unit tests
// ---------------------------------------------------------------------------

fs::IntegrityConfig tiny_config(fs::IntegrityLevel level,
                                std::uint64_t block = 64) {
  fs::IntegrityConfig config;
  config.level = level;
  config.block = block;  // small blocks so a few hundred bytes split
  return config;
}

TEST(IntegrityManager, CleanRoundTripDetectsNothing) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Detect),
                               &faults);
  fs::MemoryStore store;
  const auto data = pattern_bytes(300);
  const fs::Extent extents[] = {{0, 300}};
  const double cost = manager.register_write(0, 1, extents, data.data());
  EXPECT_GT(cost, 0.0);
  store.write(1, 0, data.data(), data.size());
  manager.mark_landed(1, 0, data.size());  // the store commit reports in
  manager.verify_ranges(0, 1, extents, store);
  manager.scrub_all(0, store, /*by_scrubber=*/false);
  EXPECT_FALSE(manager.has_error());
  EXPECT_EQ(manager.counters(1).detected, 0u);
  // 300 bytes at block=64 -> 5 blocks.
  EXPECT_EQ(manager.counters(1).blocks, 5u);
  EXPECT_EQ(manager.counters(1).bytes_checksummed, 300u);
}

TEST(IntegrityManager, DetectRecordsUnrecoverableError) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Detect),
                               &faults);
  fs::MemoryStore store;
  const auto data = pattern_bytes(128);
  const fs::Extent extents[] = {{0, 128}};
  manager.register_write(0, 1, extents, data.data());
  auto tampered = data;
  tampered[70] ^= std::byte{0x10};  // second block
  store.write(1, 0, tampered.data(), tampered.size());

  manager.verify_ranges(0, 1, extents, store);
  EXPECT_TRUE(manager.has_error());
  EXPECT_EQ(manager.counters(1).detected, 1u);
  EXPECT_EQ(manager.counters(1).repaired, 0u);
  EXPECT_EQ(manager.counters(1).errors, 1u);
  EXPECT_EQ(faults.of(0).corrupt_detected, 1u);

  // The pending word decodes back to the failing extent.
  const std::uint64_t word = manager.pending_word(1);
  ASSERT_NE(word, 0u);
  const fs::CollectiveIoError error = manager.error_of(word);
  EXPECT_EQ(error.fs_id, 1);
  EXPECT_EQ(error.offset, 64u);
  EXPECT_EQ(error.length, 64u);
  // The corrupted store byte was left untouched at Detect level.
  std::byte stored{};
  store.read(1, 70, &stored, 1);
  EXPECT_EQ(stored, tampered[70]);
}

TEST(IntegrityManager, RepairHealsStoreFromReplica) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Repair),
                               &faults);
  fs::MemoryStore store;
  const auto data = pattern_bytes(128);
  const fs::Extent extents[] = {{0, 128}};
  manager.register_write(3, 1, extents, data.data());
  auto tampered = data;
  tampered[5] ^= std::byte{0x80};
  tampered[100] ^= std::byte{0x01};  // both blocks corrupted
  store.write(1, 0, tampered.data(), tampered.size());
  manager.mark_landed(1, 0, tampered.size());

  manager.verify_ranges(3, 1, extents, store);
  EXPECT_FALSE(manager.has_error());
  EXPECT_EQ(manager.counters(1).detected, 2u);
  EXPECT_EQ(manager.counters(1).repaired, 2u);
  EXPECT_EQ(faults.of(3).corrupt_repaired, 2u);
  std::vector<std::byte> back(data.size());
  store.read(1, 0, back.data(), back.size());
  EXPECT_EQ(back, data);

  // A scrubber pass over the healed store finds nothing further, and
  // scrubber-attributed heals are counted separately.
  manager.scrub_all(3, store, /*by_scrubber=*/true);
  EXPECT_EQ(manager.counters(1).scrub_repairs, 0u);
  const std::byte recorrupted = data[30] ^ std::byte{0x40};
  store.write(1, 30, &recorrupted, 1);  // re-corrupt one byte
  manager.scrub_all(3, store, /*by_scrubber=*/true);
  EXPECT_EQ(manager.counters(1).scrub_repairs, 1u);
  store.read(1, 0, back.data(), back.size());
  EXPECT_EQ(back, data);
}

TEST(IntegrityManager, PartialOverwriteSplitsRecords) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Repair),
                               &faults);
  fs::MemoryStore store;
  const auto first = pattern_bytes(256, 1);
  const fs::Extent whole[] = {{0, 256}};
  manager.register_write(0, 1, whole, first.data());
  store.write(1, 0, first.data(), first.size());
  manager.mark_landed(1, 0, first.size());

  // Overwrite an unaligned middle range: the straddled records must be
  // split so the surviving head/tail still verify and the new range
  // carries fresh checksums.
  const auto second = pattern_bytes(100, 2);
  const fs::Extent middle[] = {{90, 100}};
  manager.register_write(0, 1, middle, second.data());
  store.write(1, 90, second.data(), second.size());
  manager.mark_landed(1, 90, second.size());

  manager.verify_ranges(0, 1, whole, store);
  manager.scrub_all(0, store, /*by_scrubber=*/false);
  EXPECT_FALSE(manager.has_error());
  EXPECT_EQ(manager.counters(1).detected, 0u);

  // Corruption in each region is still caught after the split.
  auto expected = first;
  std::memcpy(expected.data() + 90, second.data(), second.size());
  for (const std::uint64_t site : {std::uint64_t{10}, std::uint64_t{120},
                                   std::uint64_t{230}}) {
    std::byte flipped = expected[site];
    flipped ^= std::byte{0x40};
    store.write(1, site, &flipped, 1);
  }
  manager.scrub_all(0, store, /*by_scrubber=*/false);
  EXPECT_EQ(manager.counters(1).detected, 3u);
  EXPECT_EQ(manager.counters(1).repaired, 3u);
  std::vector<std::byte> back(expected.size());
  store.read(1, 0, back.data(), back.size());
  EXPECT_EQ(back, expected);
}

TEST(IntegrityManager, VerifyBufferHealsInPlace) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Repair),
                               &faults);
  const auto data = pattern_bytes(128);
  const fs::Extent extents[] = {{4096, 128}};
  manager.register_write(0, 7, extents, data.data());

  auto staged = data;
  staged[64] ^= std::byte{0x08};
  manager.verify_buffer(0, 7, extents, staged.data(),
                        manager.writes_registered());
  EXPECT_EQ(staged, data);  // healed in place from the replica
  EXPECT_EQ(manager.counters(7).detected, 1u);
  EXPECT_EQ(manager.counters(7).repaired, 1u);
}

TEST(IntegrityManager, VerifyBufferSkipsRecordsRegisteredAfterStaging) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Detect),
                               &faults);
  const auto old_bytes = pattern_bytes(128, 1);
  const fs::Extent extents[] = {{4096, 128}};
  manager.register_write(0, 7, extents, old_bytes.data());
  const std::uint64_t staged_at = manager.writes_registered();
  // A later call rewrites the second block only; the split-off first block
  // keeps the stamp of the write that made it.
  const auto new_bytes = pattern_bytes(64, 9);
  const fs::Extent second[] = {{4160, 64}};
  manager.register_write(1, 7, second, new_bytes.data());
  EXPECT_EQ(manager.writes_registered(), staged_at + 1);

  // The buffer staged before the rewrite still holds the old bytes: only
  // the first block is checked, and it is clean.
  auto staged = old_bytes;
  manager.verify_buffer(0, 7, extents, staged.data(), staged_at);
  EXPECT_EQ(manager.counters(7).detected, 0u);
  // A decayed byte in the first block is still caught.
  staged[3] ^= std::byte{0x10};
  manager.verify_buffer(0, 7, extents, staged.data(), staged_at);
  EXPECT_EQ(manager.counters(7).detected, 1u);
  EXPECT_TRUE(manager.has_error());
}

TEST(IntegrityManager, PendingWordPicksOneErrorForAgreement) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Detect),
                               &faults);
  EXPECT_EQ(manager.pending_word(5), 0u);
  manager.record_error(2, 100, 64);
  manager.record_error(5, 7, 64);  // the file's highest offset wins
  manager.record_error(5, 3, 64);
  const std::uint64_t word = manager.pending_word(5);
  const fs::CollectiveIoError error = manager.error_of(word);
  EXPECT_EQ(error.fs_id, 5);
  EXPECT_EQ(error.offset, 7u);
  // Each file's word carries only that file's errors.
  EXPECT_EQ(manager.error_of(manager.pending_word(2)).offset, 100u);
  EXPECT_EQ(manager.pending_word(3), 0u);
  // The word is what allreduce_max reduces: any rank holding a smaller
  // word decodes the winner identically.
  EXPECT_EQ(manager.error_of(word).fs_id, error.fs_id);
  EXPECT_EQ(std::string(error.what()).find("unrecoverable") !=
                std::string::npos,
            true);
}

TEST(IntegrityManager, ScopedPendingWordSeesOnlyOverlappingErrors) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Detect),
                               &faults);
  manager.record_error(5, 1000, 64);  // [1000, 1064)
  manager.record_error(5, 4000, 64);  // [4000, 4064)
  manager.record_error(6, 0, 64);     // another file
  const auto word_over = [&](std::vector<fs::Extent> extents) {
    return manager.pending_word(5, extents);
  };
  EXPECT_EQ(word_over({}), 0u);
  EXPECT_EQ(word_over({{0, 1000}, {1064, 2936}}), 0u);  // around both
  EXPECT_EQ(manager.error_of(word_over({{1063, 1}})).offset, 1000u);
  EXPECT_EQ(manager.error_of(word_over({{0, 8}, {3990, 11}})).offset, 4000u);
  // Both touched: the same winner as the file-wide word.
  EXPECT_EQ(word_over({{1000, 3001}}), manager.pending_word(5));
}

TEST(IntegrityManager, RegistrationWithoutBytesOnlyCounts) {
  fault::FaultState faults;
  const fs::IntegrityConfig config =
      tiny_config(fs::IntegrityLevel::Detect, 512);
  fs::IntegrityManager manager(config, &faults);
  // 2048 B = 4 full blocks, 1000 B = one full block and a 488 B tail.
  const fs::Extent extents[] = {{0, 2048}, {8192, 1000}};
  const double cost = manager.register_write(0, 1, extents, nullptr);
  EXPECT_DOUBLE_EQ(cost, 3048.0 / config.checksum_bw);
  EXPECT_EQ(manager.counters(1).blocks, 6u);
  EXPECT_EQ(manager.counters(1).bytes_checksummed, 3048u);

  // Nothing was checksummed, so a staged buffer over the same range has
  // nothing to be audited against: no time, no detection, whatever bytes.
  auto decayed = pattern_bytes(3048);
  decayed[100] ^= std::byte{0x04};
  EXPECT_EQ(manager.verify_buffer(0, 1, extents, decayed.data(),
                                  manager.writes_registered()),
            0.0);
  EXPECT_EQ(manager.counters(1).detected, 0u);
  EXPECT_FALSE(manager.has_error());
}

TEST(IntegrityManager, RegistrationWithoutBytesRetiresWhatItOverwrites) {
  fault::FaultState faults;
  const fs::IntegrityConfig config = tiny_config(fs::IntegrityLevel::Detect);
  fs::IntegrityManager manager(config, &faults);
  fs::MemoryStore store;
  const auto data = pattern_bytes(256);
  const fs::Extent whole[] = {{0, 256}};
  manager.register_write(0, 1, whole, data.data());
  store.write(1, 0, data.data(), data.size());
  manager.mark_landed(1, 0, data.size());

  // A write without bytes over an unaligned middle range: the records it
  // covers go, the pieces around it stay checksummed.
  const fs::Extent middle[] = {{90, 100}};
  manager.register_write(0, 1, middle, nullptr);
  manager.mark_landed(1, 90, 100);
  for (const std::uint64_t site : {std::uint64_t{90}, std::uint64_t{150},
                                   std::uint64_t{189}}) {
    std::byte flipped = data[site] ^ std::byte{0x40};
    store.write(1, site, &flipped, 1);
  }
  // Only the survivors [0, 90) and [190, 256) are read back and checked.
  EXPECT_DOUBLE_EQ(manager.verify_ranges(0, 1, whole, store),
                   156.0 / config.checksum_bw);
  manager.scrub_all(0, store, /*by_scrubber=*/false);
  EXPECT_EQ(manager.counters(1).detected, 0u);
  EXPECT_FALSE(manager.has_error());

  // The survivors still catch corruption on either side.
  for (const std::uint64_t site : {std::uint64_t{89}, std::uint64_t{190}}) {
    std::byte flipped = data[site] ^ std::byte{0x40};
    store.write(1, site, &flipped, 1);
  }
  manager.scrub_all(0, store, /*by_scrubber=*/false);
  EXPECT_EQ(manager.counters(1).detected, 2u);
  EXPECT_TRUE(manager.has_error());
}

TEST(IntegrityManager, CountsArePerFile) {
  fault::FaultState faults;
  fs::IntegrityManager manager(tiny_config(fs::IntegrityLevel::Repair),
                               &faults);
  fs::MemoryStore store;
  const auto data = pattern_bytes(128);
  const fs::Extent two_blocks[] = {{0, 128}};
  const fs::Extent one_block[] = {{0, 64}};
  manager.register_write(0, 1, two_blocks, data.data());
  manager.register_write(1, 2, one_block, data.data());
  auto tampered = data;
  tampered[3] ^= std::byte{0x20};
  store.write(2, 0, tampered.data(), 64);
  manager.verify_ranges(1, 2, one_block, store);

  // Each file sees only its own blocks and outcomes.
  EXPECT_EQ(manager.counters(1).blocks, 2u);
  EXPECT_EQ(manager.counters(1).detected, 0u);
  EXPECT_EQ(manager.counters(2).blocks, 1u);
  EXPECT_EQ(manager.counters(2).bytes_checksummed, 64u);
  EXPECT_EQ(manager.counters(2).detected, 1u);
  EXPECT_EQ(manager.counters(2).repaired, 1u);
  EXPECT_EQ(manager.counters(3).blocks, 0u);  // a file it never saw
  // The same outcome is counted once more, for the client that found it.
  EXPECT_EQ(faults.of(1).corrupt_detected, 1u);
  EXPECT_EQ(faults.of(1).corrupt_repaired, 1u);
  EXPECT_EQ(faults.of(0).corrupt_detected, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: collective writes under injected silent corruption
// ---------------------------------------------------------------------------

struct IntegrityRun {
  bool write_verified = false;
  bool read_verified = false;
  bool threw_collective_error = false;
  std::vector<fs::CollectiveIoError> errors;  // one per throwing rank
  fault::FaultCounters faults;
  mpiio::FileStats stats;
};

/// Serial pattern (rank r owns a contiguous 4 KiB block), one collective
/// write then one collective read, bytes verified against the store —
/// under a corruption plan and a chosen integrity level.
IntegrityRun run_corrupted(int nranks, const fault::FaultPlan& plan,
                           fs::IntegrityLevel level, int num_osts = 0) {
  machine::MachineModel model = machine::MachineModel::jaguar(nranks);
  if (num_osts > 0) {
    model.storage.num_osts = num_osts;
    model.storage.default_stripe_count =
        std::min(model.storage.default_stripe_count, num_osts);
  }
  mpi::World world(std::move(model));
  world.set_fault(plan);
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.integrity.level = level;
  hints.integrity.block = 512;
  IntegrityRun result;
  result.write_verified = true;
  result.read_verified = true;
  result.errors.resize(static_cast<std::size_t>(nranks), {0, 0, 0});

  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "integ.dat", hints);
    const std::uint64_t bytes = 4096;
    file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                  dtype::Datatype::bytes(bytes));
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    const auto extents = file.view().map(0, bytes);
    std::vector<std::byte> buffer(bytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1, extents,
                                       kSalt);
    try {
      core::write_at_all(file, 0, buffer.data(), 1, memtype);
      mpi::barrier(self, self.comm_world());

      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      result.write_verified =
          result.write_verified && store != nullptr &&
          workloads::verify_store(*store, file.fs_id(), extents, kSalt);

      std::vector<std::byte> back(bytes);
      core::read_at_all(file, 0, back.data(), 1, memtype);
      result.read_verified =
          result.read_verified &&
          workloads::check_buffer_for_extents(back.data(), memtype, 1,
                                              extents, kSalt);
      mpi::barrier(self, self.comm_world());
      file.close();  // the close-time sweep harvests the integrity stats
      if (self.rank() == 0) result.stats = file.stats();
    } catch (const fs::CollectiveIoError& error) {
      // Every rank must land here with the identical agreed error; nobody
      // is left waiting in a collective.
      result.threw_collective_error = true;
      result.errors[static_cast<std::size_t>(self.rank())] = error;
    }
  });
  result.faults = world.fault_state().total();
  return result;
}

/// The planted-bug contrast: the identical corruption plan silently
/// corrupts the file with checksums off and never survives at repair.
TEST(IntegrityEndToEnd, CorruptionSlipsThroughOffAndNeverThroughRepair) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=21;rpc-corrupt=0.5;timeout=0.002;backoff=0.001:0.004;"
      "max-retries=16");

  const IntegrityRun off = run_corrupted(8, plan, fs::IntegrityLevel::Off);
  EXPECT_FALSE(off.threw_collective_error);
  EXPECT_GT(off.faults.corrupt_injected, 0u);
  EXPECT_EQ(off.faults.corrupt_detected, 0u);  // nobody was looking
  EXPECT_FALSE(off.write_verified);  // the silent corruption landed

  const IntegrityRun repair =
      run_corrupted(8, plan, fs::IntegrityLevel::Repair);
  EXPECT_FALSE(repair.threw_collective_error);
  EXPECT_GT(repair.faults.corrupt_injected, 0u);
  EXPECT_GT(repair.faults.corrupt_detected, 0u);
  EXPECT_TRUE(repair.write_verified);  // every flip was caught and healed
  EXPECT_TRUE(repair.read_verified);
  // The file's close-time summary carries the pipeline's work.
  EXPECT_GT(repair.stats.integrity_blocks, 0u);
  EXPECT_GT(repair.stats.corrupt_detected, 0u);
  EXPECT_EQ(repair.stats.integrity_errors, 0u);
}

TEST(IntegrityEndToEnd, BbCorruptionIsHealedBeforeDrain) {
  const fault::FaultPlan plan =
      fault::FaultPlan::parse("seed=23;bb-corrupt=0.5");
  mpi::World world(machine::MachineModel::jaguar(8));
  world.set_fault(plan);
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.integrity.level = fs::IntegrityLevel::Repair;
  hints.integrity.block = 512;
  hints.bb.enabled = true;
  bool verified = false;
  fault::FaultCounters faults;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "bb.dat", hints);
    const std::uint64_t bytes = 4096;
    file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                  dtype::Datatype::bytes(bytes));
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    const auto extents = file.view().map(0, bytes);
    std::vector<std::byte> buffer(bytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1, extents,
                                       kSalt);
    core::write_at_all(file, 0, buffer.data(), 1, memtype);
    file.close();  // drains everything durably
    if (self.rank() == 0) {
      auto* store =
          dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
      fs::Extent all{0, static_cast<std::uint64_t>(8) * bytes};
      verified = store != nullptr &&
                 workloads::verify_store(*store, file.fs_id(), {&all, 1},
                                         kSalt);
    }
  });
  faults = world.fault_state().total();
  EXPECT_GT(faults.corrupt_injected, 0u);
  EXPECT_GT(faults.corrupt_repaired, 0u);
  EXPECT_TRUE(verified);
}

TEST(IntegrityEndToEnd, PhantomBbCorruptionCountsInFileStats) {
  // Phantom arenas keep no bytes, so the pre-drain audit accounts each
  // decayed segment by its draw. The file's summary must report the same
  // detections and repairs as the world's fault counters.
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = core::kAutoGroups;
  spec.intranode = node::IntranodeMode::Auto;
  spec.bb.enabled = true;
  spec.integrity.level = fs::IntegrityLevel::Repair;
  spec.fault = fault::FaultPlan::parse("seed=37;bb-corrupt=0.05");
  const workloads::RunResult result = workloads::run_tileio(
      workloads::TileIOConfig::paper(16), 16, spec, /*write=*/true);
  EXPECT_GT(result.faults.corrupt_detected, 0u);
  EXPECT_EQ(result.stats.corrupt_detected, result.faults.corrupt_detected);
  EXPECT_GT(result.faults.corrupt_repaired, 0u);
  EXPECT_EQ(result.stats.corrupt_repaired, result.faults.corrupt_repaired);
}

/// One shuffled-IOR write through the burst buffer with integrity on.
struct ShuffledRun {
  bool threw = false;     // the ranks caught the agreed CollectiveIoError
  int close_errors = 0;   // ranks whose close threw it
  bool verified = true;   // every block reads back as written
  mpiio::FileStats stats;  // rank 0's close-time summary
  fault::FaultCounters faults;
};

/// Byte-true 32-rank ParColl IOR write, 1 MiB blocks in 128 KiB transfers
/// visited in shuffled order (IOR -z), through a watermark-drained burst
/// buffer. Ranks catch the agreed CollectiveIoError themselves, so a run
/// that detects corruption still ends every fiber. A subgroup that agrees
/// on an error at a write stops writing but still closes: the other
/// subgroups did not throw it and wait for it there.
ShuffledRun run_shuffled_ior(std::uint64_t seed, fs::IntegrityLevel level,
                             const std::string& fault = "") {
  workloads::IorConfig config;
  config.block_size = 1 << 20;
  config.xfer_size = 128 << 10;
  config.random_offsets = true;
  config.order_seed = seed;
  workloads::RunSpec spec;
  spec.impl = workloads::Impl::ParColl;
  spec.parcoll_groups = core::kAutoGroups;
  spec.intranode = node::IntranodeMode::Auto;
  spec.bb.enabled = true;
  spec.bb.policy = bb::DrainPolicy::Watermark;
  spec.integrity.level = level;
  machine::MachineModel model = spec.model(32);
  model.storage.seed = seed;
  mpi::World world(std::move(model));
  if (!fault.empty()) world.set_fault(fault::FaultPlan::parse(fault));
  const mpiio::Hints hints = spec.hints();
  ShuffledRun run;
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "ior.dat", hints);
    const dtype::Datatype memtype = dtype::Datatype::bytes(config.xfer_size);
    std::vector<std::byte> buffer(config.xfer_size);
    const fs::Extent block{
        static_cast<std::uint64_t>(self.rank()) * config.block_size,
        config.block_size};
    try {
      for (std::uint64_t t : config.transfer_order(self.rank())) {
        const fs::Extent extent{block.offset + t * config.xfer_size,
                                config.xfer_size};
        workloads::fill_stream(buffer.data(), std::span(&extent, 1), kSalt);
        core::write_at_all(file, extent.offset, buffer.data(), 1, memtype);
      }
    } catch (const fs::CollectiveIoError&) {
      run.threw = true;
    }
    try {
      file.close();  // drains everything durably
    } catch (const fs::CollectiveIoError&) {
      run.threw = true;
      ++run.close_errors;
      return;
    }
    auto* store = dynamic_cast<fs::MemoryStore*>(&self.world().fs().store());
    run.verified = run.verified && store != nullptr &&
                   workloads::verify_store(*store, file.fs_id(),
                                           std::span(&block, 1), kSalt);
    if (self.rank() == 0) run.stats = file.stats();
  });
  run.faults = world.fault_state().total();
  return run;
}

TEST(IntegrityEndToEnd, ShuffledIorThroughBbHasNoFalseDetections) {
  // A window with holes is read-modify-written whole, so a staged segment
  // holds old file bytes for offsets a later call rewrites. When that
  // segment drains, its audit must not check those old bytes against the
  // later call's checksums: nothing here corrupts anything.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const auto level :
         {fs::IntegrityLevel::Detect, fs::IntegrityLevel::Repair}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", integrity " +
                   fs::to_string(level));
      const ShuffledRun run = run_shuffled_ior(seed, level);
      EXPECT_FALSE(run.threw);
      EXPECT_TRUE(run.verified);
      EXPECT_GT(run.stats.bb_staged_segments, 0u);
      EXPECT_GT(run.stats.rmw_reads, 0u);
      EXPECT_EQ(run.faults.corrupt_detected, 0u);
      EXPECT_EQ(run.stats.corrupt_detected, 0u);
    }
  }
  // Planted decay in the same runs is still caught: detect reports it
  // collectively, repair heals it before it drains.
  const std::string planted = "seed=3;bb-corrupt=0.05";
  const ShuffledRun detected =
      run_shuffled_ior(3, fs::IntegrityLevel::Detect, planted);
  EXPECT_TRUE(detected.threw);
  EXPECT_EQ(detected.close_errors, 32);  // at close at the latest
  const ShuffledRun repaired =
      run_shuffled_ior(3, fs::IntegrityLevel::Repair, planted);
  EXPECT_FALSE(repaired.threw);
  EXPECT_TRUE(repaired.verified);
  EXPECT_GT(repaired.faults.corrupt_injected, 0u);
  EXPECT_GT(repaired.faults.corrupt_repaired, 0u);
}

TEST(IntegrityEndToEnd, EpioFileReportsItsOwnBlocks) {
  // One file per rank, closed independently: each file's summary carries
  // its own checksum blocks, not whatever the first close happened to see.
  workloads::BtIOConfig config;
  config.grid = 12;
  config.nsteps = 2;
  workloads::RunSpec spec;
  spec.byte_true = true;
  spec.integrity.level = fs::IntegrityLevel::Detect;
  spec.integrity.block = 1024;
  const workloads::RunResult result =
      workloads::run_btio_epio(config, 9, spec);
  EXPECT_TRUE(result.verified);
  // The result carries rank 0's file: 2 steps of rank_bytes(0, 9) = 7680 B,
  // each chunked into 7 full 1 KiB blocks and one 512 B tail.
  EXPECT_EQ(result.stats.integrity_blocks, 16u);
  EXPECT_EQ(result.stats.integrity_bytes, 2 * config.rank_bytes(0, 9));
}

// ---------------------------------------------------------------------------
// Retry exhaustion and collective error agreement
// ---------------------------------------------------------------------------

/// Every retransmit corrupted: recovery must exhaust deterministically and
/// every rank throws the identical agreed error carrying a failing extent.
TEST(IntegrityAgreement, ExhaustedRecoveryThrowsIdenticallyOnAllRanks) {
  const int nranks = 8;
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=25;rpc-corrupt=1.0;timeout=0.002;backoff=0.001:0.004;"
      "max-retries=2");
  const IntegrityRun run =
      run_corrupted(nranks, plan, fs::IntegrityLevel::Detect);
  EXPECT_TRUE(run.threw_collective_error);
  EXPECT_GT(run.faults.corrupt_injected, 0u);
  EXPECT_GT(run.faults.retries, 0u);
  const fs::CollectiveIoError& agreed = run.errors[0];
  EXPECT_GT(agreed.length, 0u);
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(run.errors[static_cast<std::size_t>(r)].fs_id, agreed.fs_id)
        << "rank " << r;
    EXPECT_EQ(run.errors[static_cast<std::size_t>(r)].offset, agreed.offset)
        << "rank " << r;
    EXPECT_EQ(run.errors[static_cast<std::size_t>(r)].length, agreed.length)
        << "rank " << r;
  }
}

TEST(IntegrityAgreement, ZeroRetriesExhaustImmediately) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=27;rpc-corrupt=1.0;timeout=0.002;backoff=0.001:0.004;"
      "max-retries=0");
  const IntegrityRun run =
      run_corrupted(8, plan, fs::IntegrityLevel::Detect);
  EXPECT_TRUE(run.threw_collective_error);
  // No retransmit budget: the first corrupt landing is final, so nothing
  // was ever resent.
  EXPECT_EQ(run.faults.retries, 0u);
  EXPECT_GT(run.faults.corrupt_detected, 0u);
}

TEST(IntegrityAgreement, OneFilesErrorNeverSurfacesInAnother) {
  // File A stages through a burst buffer whose every segment decays, so
  // its writes end in the agreed CollectiveIoError. File B, opened after,
  // is clean: its collective write and close must not throw A's error.
  const int nranks = 8;
  mpi::World world(machine::MachineModel::jaguar(nranks));
  world.set_fault(fault::FaultPlan::parse("seed=5;bb-corrupt=1.0"));
  mpiio::Hints plain;
  plain.cb_buffer_size = 1024;
  plain.integrity.level = fs::IntegrityLevel::Detect;
  plain.integrity.block = 512;
  mpiio::Hints staged = plain;
  staged.bb.enabled = true;
  std::vector<int> a_threw(nranks, 0);
  std::vector<int> b_threw(nranks, 0);
  std::vector<int> error_file(nranks, -1);
  int a_fs = -1;
  world.run([&](mpi::Rank& self) {
    const auto me = static_cast<std::size_t>(self.rank());
    const std::uint64_t bytes = 4096;
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    std::vector<std::byte> buffer(bytes);
    const auto write_and_close = [&](mpiio::FileHandle& file) {
      file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                    memtype);
      workloads::fill_buffer_for_extents(buffer.data(), memtype, 1,
                                         file.view().map(0, bytes), kSalt);
      core::write_at_all(file, 0, buffer.data(), 1, memtype);
      file.close();
    };
    mpiio::FileHandle a(self, self.comm_world(), "a.dat", staged);
    a_fs = a.fs_id();
    try {
      write_and_close(a);
    } catch (const fs::CollectiveIoError& error) {
      a_threw[me] = 1;
      error_file[me] = error.fs_id;
    }
    mpiio::FileHandle b(self, self.comm_world(), "b.dat", plain);
    try {
      write_and_close(b);
    } catch (const fs::CollectiveIoError& error) {
      b_threw[me] = 1;
      error_file[me] = error.fs_id;
    }
  });
  for (int r = 0; r < nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(a_threw[i], 1) << "rank " << r;
    EXPECT_EQ(b_threw[i], 0) << "rank " << r;
    EXPECT_EQ(error_file[i], a_fs) << "rank " << r;
  }
}

TEST(IntegrityAgreement, SubgroupErrorStaysInItsSubgroup) {
  // ParColl-2 over 8 ranks that each own a contiguous 4 KiB block: ranks
  // 0-3 form subgroup A, ranks 4-7 subgroup B. After a clean collective
  // write, a stored byte of rank 1's block decays, and the collective read
  // finds it in rank 1's client audit. A's members agree on it and throw at
  // the read; B's read agrees within B on B's own data and throws nothing.
  // Close agrees file-wide, so every rank throws the identical error there.
  const int nranks = 8;
  const std::uint64_t bytes = 4096;
  const std::uint64_t decayed_at = bytes + 100;  // in rank 1's block
  mpi::World world(machine::MachineModel::jaguar(nranks));
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.parcoll_num_groups = 2;
  hints.parcoll_min_group_size = 2;
  hints.integrity.level = fs::IntegrityLevel::Detect;
  hints.integrity.block = 512;
  std::vector<int> groups(nranks, 0);
  std::vector<int> read_threw(nranks, 0);
  std::vector<int> close_threw(nranks, 0);
  std::vector<fs::CollectiveIoError> at_close(nranks, {0, 0, 0});
  world.run([&](mpi::Rank& self) {
    const auto me = static_cast<std::size_t>(self.rank());
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    mpiio::FileHandle file(self, self.comm_world(), "sub.dat", hints);
    file.set_view(me * bytes, 1, memtype);
    std::vector<std::byte> buffer(bytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1,
                                       file.view().map(0, bytes), kSalt);
    const core::CollectiveOutcome wrote =
        core::write_at_all(file, 0, buffer.data(), 1, memtype);
    groups[me] = wrote.num_groups;
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 1) {
      fs::ObjectStore& store = self.world().fs().store();
      std::byte decayed{};
      store.read(file.fs_id(), decayed_at, &decayed, 1);
      decayed = ~decayed;
      store.write(file.fs_id(), decayed_at, &decayed, 1);
    }
    mpi::barrier(self, self.comm_world());
    try {
      core::read_at_all(file, 0, buffer.data(), 1, memtype);
    } catch (const fs::CollectiveIoError&) {
      read_threw[me] = 1;
    }
    try {
      file.close();
    } catch (const fs::CollectiveIoError& error) {
      close_threw[me] = 1;
      at_close[me] = error;
    }
  });
  for (int r = 0; r < nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(groups[i], 2) << "rank " << r;
    EXPECT_EQ(read_threw[i], r < 4 ? 1 : 0) << "rank " << r;
    EXPECT_EQ(close_threw[i], 1) << "rank " << r;
    EXPECT_EQ(at_close[i].fs_id, at_close[0].fs_id) << "rank " << r;
    EXPECT_EQ(at_close[i].offset, at_close[0].offset) << "rank " << r;
    EXPECT_EQ(at_close[i].length, at_close[0].length) << "rank " << r;
  }
  EXPECT_LE(at_close[0].offset, decayed_at);
  EXPECT_GT(at_close[0].offset + at_close[0].length, decayed_at);
}

/// Four byte-true ranks each write a contiguous 4 KiB block with plain
/// ext2ph (512 B integrity blocks, Detect). A stored byte of rank 1's block
/// then decays, and a collective read and close follow: the read's client
/// audit finds the decay, the call agrees on it and throws, and close's
/// sweep audits the same block again and throws it file-wide.
struct DecayedRead {
  int read_errors = 0;   // ranks that caught the agreed error at the read
  int close_errors = 0;  // ranks whose close threw it
  mpiio::FileStats stats;  // the file's stats once closed
  std::string summary;
  std::uint64_t faults_detected = 0;  // FaultCounters, all clients
};

DecayedRead run_decayed_read() {
  constexpr int kRanks = 4;
  constexpr std::uint64_t kBytes = 4096;
  mpi::World world(machine::MachineModel::jaguar(kRanks));
  mpiio::Hints hints;
  hints.cb_buffer_size = 1024;
  hints.integrity.level = fs::IntegrityLevel::Detect;
  hints.integrity.block = 512;
  DecayedRead probe;
  world.run([&](mpi::Rank& self) {
    const dtype::Datatype memtype = dtype::Datatype::bytes(kBytes);
    mpiio::FileHandle file(self, self.comm_world(), "decay.dat", hints);
    file.set_view(static_cast<std::uint64_t>(self.rank()) * kBytes, 1,
                  memtype);
    std::vector<std::byte> buffer(kBytes);
    workloads::fill_buffer_for_extents(buffer.data(), memtype, 1,
                                       file.view().map(0, kBytes), kSalt);
    core::write_at_all(file, 0, buffer.data(), 1, memtype);
    mpi::barrier(self, self.comm_world());
    if (self.rank() == 1) {
      fs::ObjectStore& store = self.world().fs().store();
      std::byte decayed{};
      store.read(file.fs_id(), kBytes + 100, &decayed, 1);
      decayed = ~decayed;
      store.write(file.fs_id(), kBytes + 100, &decayed, 1);
    }
    mpi::barrier(self, self.comm_world());
    try {
      core::read_at_all(file, 0, buffer.data(), 1, memtype);
    } catch (const fs::CollectiveIoError&) {
      ++probe.read_errors;
    }
    try {
      file.close();
    } catch (const fs::CollectiveIoError&) {
      ++probe.close_errors;
    }
    if (self.rank() == 0) {
      probe.stats = file.stats();
      probe.summary = file.stats().summary(file.name());
    }
  });
  probe.faults_detected = world.fault_state().total().corrupt_detected;
  return probe;
}

TEST(IntegrityAgreement, ReauditOfAPendingErrorCountsNothingNew) {
  const DecayedRead probe = run_decayed_read();
  EXPECT_EQ(probe.read_errors, 4);
  EXPECT_EQ(probe.close_errors, 4);
  // The read's audit and close's sweep both re-read the decayed block:
  // one corruption, one detection, one pending error.
  EXPECT_EQ(probe.stats.corrupt_detected, 1u);
  EXPECT_EQ(probe.stats.integrity_errors, 1u);
  EXPECT_EQ(probe.faults_detected, 1u);
  EXPECT_NE(probe.summary.find("detected=1 "), std::string::npos)
      << probe.summary;
  EXPECT_NE(probe.summary.find("errors=1"), std::string::npos)
      << probe.summary;
}

TEST(IntegrityAgreement, CallEndingInTheAgreedErrorIsCounted) {
  // The read moved its bytes before the agreement threw: the summary
  // counts them and the call.
  const DecayedRead probe = run_decayed_read();
  EXPECT_EQ(probe.read_errors, 4);
  EXPECT_EQ(probe.stats.bytes_read, 4u * 4096u);
  EXPECT_EQ(probe.stats.collective_reads, 1u);
  EXPECT_NE(probe.summary.find("read=16384B"), std::string::npos)
      << probe.summary;
  EXPECT_NE(probe.summary.find("coll_r=1 "), std::string::npos)
      << probe.summary;
}

TEST(IntegrityEndToEnd, CloseSweepAuditsOnlyTheClosingFile) {
  // Two same-sized files, closed one after the other in one world. A byte
  // of file A decays after A has closed: B's close-time sweep audits B
  // alone, so it costs what A's did and never finds A's decay.
  const int nranks = 4;
  mpi::World world(machine::MachineModel::jaguar(nranks));
  mpiio::Hints hints;
  hints.integrity.level = fs::IntegrityLevel::Detect;
  double sweep_a = 0;
  double sweep_b = 0;
  int a_fs = -1;
  world.run([&](mpi::Rank& self) {
    const std::uint64_t bytes = 1 << 20;
    const dtype::Datatype memtype = dtype::Datatype::bytes(bytes);
    std::vector<std::byte> buffer(bytes);
    // Rank 0 runs the sweep; returns its Integrity seconds during close.
    const auto write_and_close = [&](mpiio::FileHandle& file) {
      file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                    memtype);
      workloads::fill_buffer_for_extents(buffer.data(), memtype, 1,
                                         file.view().map(0, bytes), kSalt);
      core::write_at_all(file, 0, buffer.data(), 1, memtype);
      const double before = self.times().breakdown()[mpi::TimeCat::Integrity];
      file.close();
      return self.times().breakdown()[mpi::TimeCat::Integrity] - before;
    };
    mpiio::FileHandle a(self, self.comm_world(), "a.dat", hints);
    const double a_seconds = write_and_close(a);
    if (self.rank() == 0) {
      sweep_a = a_seconds;
      a_fs = a.fs_id();
      fs::ObjectStore& store = self.world().fs().store();
      std::byte decayed{};
      store.read(a_fs, 12345, &decayed, 1);
      decayed = ~decayed;
      store.write(a_fs, 12345, &decayed, 1);
    }
    mpiio::FileHandle b(self, self.comm_world(), "b.dat", hints);
    const double b_seconds = write_and_close(b);
    if (self.rank() == 0) sweep_b = b_seconds;
  });
  EXPECT_GT(sweep_a, 0.0);
  EXPECT_DOUBLE_EQ(sweep_b, sweep_a);
  EXPECT_EQ(world.integrity()->counters(a_fs).detected, 0u);
  EXPECT_EQ(world.fault_state().total().corrupt_detected, 0u);
}

TEST(IntegrityAgreement, BackoffCapSaturatesDuringRetransmits) {
  // backoff base == cap: every retransmit waits exactly timeout + cap, so
  // the faulted seconds are an exact multiple and the cap demonstrably
  // bounds the wait. Repair level: with fresh randomness per retransmit
  // (corrupt probability 0.5) the run still completes with clean bytes.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=29;rpc-corrupt=0.5;timeout=0.002;backoff=0.003:0.003;"
      "max-retries=24");
  const IntegrityRun run =
      run_corrupted(8, plan, fs::IntegrityLevel::Repair);
  EXPECT_FALSE(run.threw_collective_error);
  EXPECT_TRUE(run.write_verified);
  ASSERT_GT(run.faults.retries, 0u);
  const double per_wait = 0.002 + 0.003;
  const double waits = run.faults.faulted_seconds / per_wait;
  EXPECT_NEAR(waits, std::round(waits), 1e-6)
      << "faulted time is not a whole number of capped waits";
}

TEST(IntegrityAgreement, AllOstsDownStillRecoversAfterTheWindow) {
  // Every OST dark for a finite window while payloads also corrupt on the
  // wire: failover has nowhere to land until the window passes, then the
  // retransmit pipeline cleans everything up. The run must complete with
  // the clean bytes — integrity only ever surfaces *unrecoverable* loss.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=31;ost-outage=0:0:0.05;ost-outage=1:0:0.05;ost-outage=2:0:0.05;"
      "ost-outage=3:0:0.05;rpc-corrupt=0.25;timeout=0.002;"
      "backoff=0.001:0.004;max-retries=2");
  const IntegrityRun run =
      run_corrupted(8, plan, fs::IntegrityLevel::Repair, /*num_osts=*/4);
  EXPECT_FALSE(run.threw_collective_error);
  EXPECT_TRUE(run.write_verified);
  EXPECT_TRUE(run.read_verified);
  EXPECT_GT(run.faults.failovers, 0u);
  EXPECT_GT(run.faults.corrupt_injected, 0u);
}

/// Off-level runs are bit-identical to the pre-integrity path: no manager
/// is constructed and the time breakdown has no Integrity seconds.
TEST(IntegrityEndToEnd, DisabledLevelInstallsNothing) {
  mpi::World world(machine::MachineModel::jaguar(4));
  mpiio::Hints hints;  // integrity defaults to Off
  world.run([&](mpi::Rank& self) {
    mpiio::FileHandle file(self, self.comm_world(), "plain.dat", hints);
    EXPECT_EQ(self.world().integrity(), nullptr);
    const std::uint64_t bytes = 1024;
    file.set_view(static_cast<std::uint64_t>(self.rank()) * bytes, 1,
                  dtype::Datatype::bytes(bytes));
    std::vector<std::byte> buffer(bytes, std::byte{0x5A});
    core::write_at_all(file, 0, buffer.data(), 1,
                       dtype::Datatype::bytes(bytes));
    file.close();
  });
  EXPECT_EQ(world.integrity(), nullptr);
  for (const mpi::TimeBreakdown& breakdown : world.rank_times()) {
    EXPECT_DOUBLE_EQ(
        breakdown.seconds[static_cast<std::size_t>(mpi::TimeCat::Integrity)],
        0.0);
  }
}

}  // namespace
}  // namespace parcoll
