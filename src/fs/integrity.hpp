// End-to-end data integrity for the simulated I/O stack.
//
// When any write is prepared, the user's bytes are chunked into
// fixed-size blocks and checksummed (CRC-32C) where they enter the
// pipeline. The block records ride alongside the data through intra-node
// staging, the exchange phase, bb drains, and write RPCs; the stored bytes
// are re-verified against them at the OST on ingest, before a bb segment
// drains, at the client on read, and by a background scrubber that walks
// the ObjectStore for latent media corruption. Every record keeps its
// source bytes: a partial overwrite re-checksums the surviving pieces from
// them, and at IntegrityLevel::Repair a detected mismatch is healed from
// them in place. At Detect a mismatch is only recorded, and the file's
// pending error is surfaced through a collective error-reduction so every
// rank that agrees on it throws the identical CollectiveIoError: the
// subgroup whose partitioned call touched it, and the whole communicator
// at close. A write
// without bytes (a phantom payload) counts its blocks and models its cost
// but keeps no record: there is nothing to checksum.
//
// Like LustreSim, this layer knows nothing about MPI: callers are integer
// client ids and every method returns the seconds of checksum work it
// modeled, for the caller to charge (TimeCat::Integrity). With the level
// Off no manager is ever constructed, so the disabled path stays
// bit-identical to a build without the integrity layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "fs/object_store.hpp"
#include "fs/stripe.hpp"

namespace parcoll::fs {

/// CRC-32C (Castagnoli), software table-driven; `seed` chains incremental
/// updates (pass the previous return value).
[[nodiscard]] std::uint32_t crc32c(const std::byte* data, std::size_t length,
                                   std::uint32_t seed = 0);

enum class IntegrityLevel {
  Off,     // no checksums; corruption is silent (pre-PR behavior)
  Detect,  // verify everywhere, report unrecoverable corruption collectively
  Repair,  // Detect + heal mismatches from the retained source replica
};

[[nodiscard]] const char* to_string(IntegrityLevel level);
[[nodiscard]] IntegrityLevel parse_integrity_level(const std::string& text);

struct IntegrityConfig {
  IntegrityLevel level = IntegrityLevel::Off;
  /// Checksum block granularity: registered extents are chunked to this.
  std::uint64_t block = 64ull << 10;
  /// Modeled client-side checksum throughput (bytes/s) — the "overhead"
  /// the abl_integrity ablation charts.
  double checksum_bw = 4.0 * static_cast<double>(1ull << 30);
  /// Run the background scrubber after each latent media-corruption event.
  bool scrub = true;
  /// Delay between a media event and the scrubber's visit.
  double scrub_delay = 0.005;

  [[nodiscard]] bool enabled() const { return level != IntegrityLevel::Off; }
  bool operator==(const IntegrityConfig&) const = default;
};

/// Checksum-pipeline totals of one file (FaultCounters carries the
/// per-client injected/detected/repaired view).
struct IntegrityCounters {
  std::uint64_t blocks = 0;
  std::uint64_t bytes_checksummed = 0;
  std::uint64_t detected = 0;
  std::uint64_t repaired = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t errors = 0;  // unrecoverable, pending collective agreement
};

/// The error every rank of the agreeing communicator throws after the
/// collective error-reduction agrees recovery is exhausted for an extent.
class CollectiveIoError : public std::runtime_error {
 public:
  CollectiveIoError(int fs_id, std::uint64_t offset, std::uint64_t length);

  int fs_id;
  std::uint64_t offset;
  std::uint64_t length;
};

class IntegrityManager {
 public:
  IntegrityManager(IntegrityConfig config, fault::FaultState* faults);

  [[nodiscard]] const IntegrityConfig& config() const { return config_; }

  /// Checksum and retain the payload entering any write. `data` is the
  /// extents' concatenated payload; with nullptr (phantom mode) the write
  /// only counts its blocks and retires the records it overwrites. Returns
  /// the modeled checksum seconds for the caller to charge.
  double register_write(int client, int fs_id, std::span<const Extent> extents,
                        const std::byte* data);

  /// Verify an in-memory buffer (a bb staging segment about to drain)
  /// against the records fully contained in `extents`; heals the buffer in
  /// place at Repair level. `data` is the concatenated payload. Only
  /// records from the first `as_of` register_write calls are checked (pass
  /// writes_registered() at staging): a later call may rewrite offsets the
  /// buffer holds old bytes for, and its checksums describe the new bytes.
  double verify_buffer(int client, int fs_id, std::span<const Extent> extents,
                       std::byte* data, std::uint32_t as_of);

  /// Verify the stored bytes of every record overlapping `extents`
  /// (client-on-read / OST ingest audit); heals the store at Repair level.
  double verify_ranges(int client, int fs_id, std::span<const Extent> extents,
                       ObjectStore& store);

  /// Verify every record of file `fs_id` (the close-time sweep).
  /// `by_scrubber` additionally counts heals as scrub repairs. Records
  /// whose bytes have not fully landed on the store yet (registered at
  /// collective entry, still staged or in flight) are skipped — auditing
  /// them against the store would "detect" every pending block.
  double scrub_file(int client, int fs_id, ObjectStore& store,
                    bool by_scrubber);

  /// scrub_file over every registered file (the background scrubber's
  /// walk).
  double scrub_all(int client, ObjectStore& store, bool by_scrubber);

  /// LustreSim calls this when a write piece commits to the object store:
  /// records fully covered by landed bytes become scrubbable.
  void mark_landed(int fs_id, std::uint64_t offset, std::uint64_t length);

  /// Pipeline outcomes, wherever they are found (store audit, pre-drain
  /// audit, OST ingest): each call counts the outcome once against file
  /// `fs_id` and once in `client`'s FaultCounters. A repair by the
  /// scrubber also counts as a scrub repair.
  void note_detected(int client, int fs_id);
  void note_repaired(int client, int fs_id, bool by_scrubber);

  /// Record an unrecoverable corruption of file `fs_id`, pending
  /// collective agreement. Errors stay pending for the file's lifetime.
  void record_error(int fs_id, std::uint64_t offset, std::uint64_t length);

  /// Nonzero word encoding file `fs_id`'s highest-priority pending error
  /// (0 = none); ranks agree via allreduce_max over this word.
  [[nodiscard]] std::uint64_t pending_word(int fs_id) const;
  /// The same, over only the pending errors that overlap `extents` (sorted
  /// by offset, disjoint): the word a ParColl subgroup reduces, so it
  /// agrees on errors in the data its members touched and never on another
  /// subgroup's.
  [[nodiscard]] std::uint64_t pending_word(
      int fs_id, std::span<const Extent> extents) const;

  /// Build the agreed error from a nonzero word.
  [[nodiscard]] CollectiveIoError error_of(std::uint64_t word) const;

  /// Whether any file holds a pending error.
  [[nodiscard]] bool has_error() const;
  /// Number of register_write calls so far.
  [[nodiscard]] std::uint32_t writes_registered() const {
    return writes_registered_;
  }
  /// File `fs_id`'s totals since its first registered write (all zero for
  /// a file the pipeline never saw).
  [[nodiscard]] const IntegrityCounters& counters(int fs_id) const;

 private:
  /// One per checksummed block.
  struct Record {
    std::uint64_t length = 0;
    std::uint64_t landed = 0;        // bytes committed to the store so far
    std::uint32_t crc = 0;
    std::uint32_t write = 0;         // register_write call that made it
    std::vector<std::byte> replica;  // the source bytes
  };
  using FileMap = std::map<std::uint64_t, Record>;
  /// One file's block registry, the pipeline's counts against it and its
  /// errors pending agreement.
  struct File {
    FileMap records;
    IntegrityCounters counts;
    std::vector<CollectiveIoError> errors;
  };

  /// The first record ending after `lo`: the one straddling `lo`, if any,
  /// else the first starting at or after it.
  static FileMap::iterator first_overlapping(FileMap& map, std::uint64_t lo);
  void erase_range(FileMap& map, std::uint64_t lo, std::uint64_t hi);
  /// Audit every landed record of one file against the store; returns the
  /// bytes scanned.
  std::uint64_t scrub_records(int client, int fs_id, const FileMap& records,
                              ObjectStore& store, bool by_scrubber);
  /// Verify one record against `actual` (record-length bytes); on a
  /// mismatch, `heal` writes the replica back at Repair, else the error
  /// is recorded, unless it overlaps one of the file's pending errors: a
  /// later audit of the same corruption counts nothing new.
  template <typename Heal>
  void check_record(int client, int fs_id, std::uint64_t offset,
                    const Record& record, const std::byte* actual,
                    bool by_scrubber, Heal&& heal);

  IntegrityConfig config_;
  fault::FaultState* faults_;
  std::unordered_map<int, File> files_;
  std::uint32_t writes_registered_ = 0;
};

}  // namespace parcoll::fs
