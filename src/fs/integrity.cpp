#include "fs/integrity.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

namespace parcoll::fs {

namespace {

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  // Reflected CRC-32C (Castagnoli) polynomial.
  constexpr std::uint32_t kPoly = 0x82F63B78u;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

std::uint32_t crc32c(const std::byte* data, std::size_t length,
                     std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = make_crc32c_table();
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < length; ++i) {
    crc = kTable[(crc ^ static_cast<std::uint32_t>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

const char* to_string(IntegrityLevel level) {
  switch (level) {
    case IntegrityLevel::Off:
      return "off";
    case IntegrityLevel::Detect:
      return "detect";
    case IntegrityLevel::Repair:
      return "repair";
  }
  return "?";
}

IntegrityLevel parse_integrity_level(const std::string& text) {
  if (text == "off" || text == "disable") return IntegrityLevel::Off;
  if (text == "detect") return IntegrityLevel::Detect;
  if (text == "repair" || text == "enable") return IntegrityLevel::Repair;
  throw std::invalid_argument("integrity level must be off|detect|repair: " +
                              text);
}

CollectiveIoError::CollectiveIoError(int fs_id_in, std::uint64_t offset_in,
                                     std::uint64_t length_in)
    : std::runtime_error("collective I/O integrity error: file " +
                         std::to_string(fs_id_in) + " extent [" +
                         std::to_string(offset_in) + ", " +
                         std::to_string(offset_in + length_in) +
                         ") has unrecoverable corruption"),
      fs_id(fs_id_in),
      offset(offset_in),
      length(length_in) {}

IntegrityManager::IntegrityManager(IntegrityConfig config,
                                   fault::FaultState* faults)
    : config_(config), faults_(faults) {}

IntegrityManager::FileMap::iterator IntegrityManager::first_overlapping(
    FileMap& map, std::uint64_t lo) {
  auto it = map.lower_bound(lo);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > lo) return prev;
  }
  return it;
}

void IntegrityManager::erase_range(FileMap& map, std::uint64_t lo,
                                   std::uint64_t hi) {
  auto it = first_overlapping(map, lo);
  while (it != map.end() && it->first < hi) {
    const std::uint64_t rec_lo = it->first;
    const Record old = std::move(it->second);
    it = map.erase(it);
    // An overwrite that only partially covers a record keeps the survivor
    // pieces verifiable: re-derive their checksums from the source bytes.
    const auto keep = [&](std::uint64_t from, std::uint64_t to) {
      Record piece;
      piece.length = to - from;
      piece.landed = old.landed >= old.length ? piece.length : 0;
      piece.write = old.write;
      const std::byte* src = old.replica.data() + (from - rec_lo);
      piece.replica.assign(src, src + piece.length);
      piece.crc = crc32c(src, piece.length);
      map.emplace(from, std::move(piece));
    };
    if (rec_lo < lo) keep(rec_lo, lo);
    if (rec_lo + old.length > hi) keep(hi, rec_lo + old.length);
  }
}

double IntegrityManager::register_write(int client, int fs_id,
                                        std::span<const Extent> extents,
                                        const std::byte* data) {
  File& file = files_[fs_id];
  if (writes_registered_ == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("IntegrityManager: register_write count "
                              "exceeds the 32-bit block stamp");
  }
  const std::uint32_t write = ++writes_registered_;
  std::uint64_t total = 0;  // also the cursor into the concatenated payload
  for (const Extent& extent : extents) {
    if (extent.length == 0) continue;
    erase_range(file.records, extent.offset, extent.end());
    file.counts.blocks += (extent.length + config_.block - 1) / config_.block;
    if (data != nullptr) {
      for (std::uint64_t at = 0; at < extent.length; at += config_.block) {
        Record record;
        record.length = std::min(extent.length - at, config_.block);
        record.write = write;
        const std::byte* src = data + total + at;
        record.crc = crc32c(src, record.length);
        record.replica.assign(src, src + record.length);
        file.records.emplace(extent.offset + at, std::move(record));
      }
    }
    total += extent.length;
  }
  file.counts.bytes_checksummed += total;
  (void)client;
  return static_cast<double>(total) / config_.checksum_bw;
}

template <typename Heal>
void IntegrityManager::check_record(int client, int fs_id,
                                    std::uint64_t offset,
                                    const Record& record,
                                    const std::byte* actual, bool by_scrubber,
                                    Heal&& heal) {
  if (crc32c(actual, record.length) == record.crc) return;
  if (config_.level == IntegrityLevel::Repair) {
    note_detected(client, fs_id);
    heal(record.replica);
    note_repaired(client, fs_id, by_scrubber);
    return;
  }
  const std::vector<CollectiveIoError>& pending = files_[fs_id].errors;
  if (std::any_of(pending.begin(), pending.end(),
                  [&](const CollectiveIoError& error) {
                    return error.offset < offset + record.length &&
                           offset < error.offset + error.length;
                  })) {
    return;
  }
  note_detected(client, fs_id);
  record_error(fs_id, offset, record.length);
}

double IntegrityManager::verify_buffer(int client, int fs_id,
                                       std::span<const Extent> extents,
                                       std::byte* data, std::uint32_t as_of) {
  const auto found = files_.find(fs_id);
  if (found == files_.end()) return 0.0;
  FileMap& map = found->second.records;
  std::uint64_t scanned = 0;
  std::uint64_t pos = 0;
  for (const Extent& extent : extents) {
    auto it = map.lower_bound(extent.offset);
    for (; it != map.end() && it->first + it->second.length <= extent.end();
         ++it) {
      // Only records fully inside this extent are verifiable here: a
      // straddling record's remaining bytes live in another segment (or
      // already on the OST), so its audit waits for the store-side passes.
      // A record newer than the buffer describes bytes a later call wrote.
      if (it->second.write > as_of) continue;
      std::byte* actual = data + pos + (it->first - extent.offset);
      check_record(client, fs_id, it->first, it->second, actual,
                   /*by_scrubber=*/false, [&](const std::vector<std::byte>& r) {
                     std::memcpy(actual, r.data(), r.size());
                   });
      scanned += it->second.length;
    }
    pos += extent.length;
  }
  return static_cast<double>(scanned) / config_.checksum_bw;
}

double IntegrityManager::verify_ranges(int client, int fs_id,
                                       std::span<const Extent> extents,
                                       ObjectStore& store) {
  const auto found = files_.find(fs_id);
  if (found == files_.end()) return 0.0;
  FileMap& map = found->second.records;
  std::uint64_t scanned = 0;
  std::vector<std::byte> actual;
  for (const Extent& extent : extents) {
    if (extent.length == 0) continue;
    for (auto it = first_overlapping(map, extent.offset);
         it != map.end() && it->first < extent.end(); ++it) {
      const Record& record = it->second;
      actual.resize(record.length);
      store.read(fs_id, it->first, actual.data(), record.length);
      check_record(client, fs_id, it->first, record, actual.data(),
                   /*by_scrubber=*/false, [&](const std::vector<std::byte>& r) {
                     store.write(fs_id, it->first, r.data(), r.size());
                   });
      scanned += record.length;
    }
  }
  return static_cast<double>(scanned) / config_.checksum_bw;
}

std::uint64_t IntegrityManager::scrub_records(int client, int fs_id,
                                              const FileMap& records,
                                              ObjectStore& store,
                                              bool by_scrubber) {
  std::uint64_t scanned = 0;
  std::vector<std::byte> actual;
  for (const auto& [offset, record] : records) {
    // Skip blocks still staged/in flight: the store does not hold their
    // bytes yet, so an audit would misread pending data as corruption.
    if (record.landed < record.length) continue;
    actual.resize(record.length);
    store.read(fs_id, offset, actual.data(), record.length);
    check_record(client, fs_id, offset, record, actual.data(), by_scrubber,
                 [&, off = offset](const std::vector<std::byte>& r) {
                   store.write(fs_id, off, r.data(), r.size());
                 });
    scanned += record.length;
  }
  return scanned;
}

double IntegrityManager::scrub_file(int client, int fs_id, ObjectStore& store,
                                    bool by_scrubber) {
  const auto found = files_.find(fs_id);
  if (found == files_.end()) return 0.0;
  return static_cast<double>(scrub_records(client, fs_id, found->second.records,
                                           store, by_scrubber)) /
         config_.checksum_bw;
}

double IntegrityManager::scrub_all(int client, ObjectStore& store,
                                   bool by_scrubber) {
  std::uint64_t scanned = 0;
  for (const auto& [fs_id, file] : files_) {
    scanned += scrub_records(client, fs_id, file.records, store, by_scrubber);
  }
  return static_cast<double>(scanned) / config_.checksum_bw;
}

void IntegrityManager::mark_landed(int fs_id, std::uint64_t offset,
                                   std::uint64_t length) {
  const auto found = files_.find(fs_id);
  if (found == files_.end() || length == 0) return;
  FileMap& map = found->second.records;
  const std::uint64_t hi = offset + length;
  for (auto it = first_overlapping(map, offset);
       it != map.end() && it->first < hi; ++it) {
    Record& record = it->second;
    const std::uint64_t lo = std::max(offset, it->first);
    const std::uint64_t cap = std::min(hi, it->first + record.length);
    // Accumulate landed coverage; a block split across write pieces (or
    // OSTs) only becomes scrubbable once every piece has committed.
    record.landed = std::min(record.length, record.landed + (cap - lo));
  }
}

void IntegrityManager::note_detected(int client, int fs_id) {
  ++faults_->of(client).corrupt_detected;
  ++files_[fs_id].counts.detected;
}

void IntegrityManager::note_repaired(int client, int fs_id, bool by_scrubber) {
  fault::FaultCounters& mine = faults_->of(client);
  IntegrityCounters& counts = files_[fs_id].counts;
  ++mine.corrupt_repaired;
  ++counts.repaired;
  if (by_scrubber) {
    ++mine.scrub_repairs;
    ++counts.scrub_repairs;
  }
}

void IntegrityManager::record_error(int fs_id, std::uint64_t offset,
                                    std::uint64_t length) {
  File& file = files_[fs_id];
  file.errors.emplace_back(fs_id, offset, length);
  ++file.counts.errors;
}

const IntegrityCounters& IntegrityManager::counters(int fs_id) const {
  static const IntegrityCounters kNone;
  const auto found = files_.find(fs_id);
  return found == files_.end() ? kNone : found->second.counts;
}

bool IntegrityManager::has_error() const {
  return std::any_of(files_.begin(), files_.end(), [](const auto& entry) {
    return !entry.second.errors.empty();
  });
}

namespace {
/// Encode (file, offset) so the max across ranks picks one deterministic
/// error; the file part keeps an error at offset 0 nonzero. Offsets fit
/// comfortably in 48 bits at simulated scales.
std::uint64_t error_word(const CollectiveIoError& error) {
  return (static_cast<std::uint64_t>(error.fs_id + 1) << 48) |
         (error.offset & 0xFFFFFFFFFFFFull);
}

/// Whether [offset, offset + length) meets any of the sorted, disjoint
/// `extents`.
bool overlaps(std::span<const Extent> extents, std::uint64_t offset,
              std::uint64_t length) {
  const auto first = std::partition_point(
      extents.begin(), extents.end(),
      [&](const Extent& extent) { return extent.end() <= offset; });
  return first != extents.end() && first->offset < offset + length;
}
}  // namespace

std::uint64_t IntegrityManager::pending_word(int fs_id) const {
  const auto found = files_.find(fs_id);
  if (found == files_.end()) return 0;
  std::uint64_t word = 0;
  for (const CollectiveIoError& error : found->second.errors) {
    word = std::max(word, error_word(error));
  }
  return word;
}

std::uint64_t IntegrityManager::pending_word(
    int fs_id, std::span<const Extent> extents) const {
  const auto found = files_.find(fs_id);
  if (found == files_.end()) return 0;
  std::uint64_t word = 0;
  for (const CollectiveIoError& error : found->second.errors) {
    if (overlaps(extents, error.offset, error.length)) {
      word = std::max(word, error_word(error));
    }
  }
  return word;
}

CollectiveIoError IntegrityManager::error_of(std::uint64_t word) const {
  const int fs_id = static_cast<int>(word >> 48) - 1;
  const std::uint64_t offset = word & 0xFFFFFFFFFFFFull;
  if (const auto found = files_.find(fs_id); found != files_.end()) {
    for (const CollectiveIoError& error : found->second.errors) {
      if (error.offset == offset) return error;
    }
  }
  // Another rank recorded it (should not happen with one manager per
  // world, but keep the agreement total anyway).
  return CollectiveIoError(fs_id, offset, 0);
}

}  // namespace parcoll::fs
