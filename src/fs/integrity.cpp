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

void IntegrityManager::erase_range(FileMap& map, std::uint64_t lo,
                                   std::uint64_t hi) {
  auto it = map.lower_bound(lo);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > lo) it = prev;
  }
  while (it != map.end() && it->first < hi) {
    const std::uint64_t rec_lo = it->first;
    const std::uint64_t rec_hi = rec_lo + it->second.length;
    Record old = std::move(it->second);
    it = map.erase(it);
    // An overwrite that only partially covers a record keeps the survivor
    // pieces verifiable: re-derive their checksums from the replica (or
    // keep phantom coverage as-is).
    if (rec_lo < lo) {
      Record left;
      left.length = lo - rec_lo;
      left.landed = old.landed >= old.length ? left.length : 0;
      left.write = old.write;
      if (!old.phantom()) {
        left.replica.assign(old.replica.begin(),
                            old.replica.begin() +
                                static_cast<std::ptrdiff_t>(left.length));
        left.crc = crc32c(left.replica.data(), left.replica.size());
      }
      map.emplace(rec_lo, std::move(left));
    }
    if (rec_hi > hi) {
      Record right;
      right.length = rec_hi - hi;
      right.landed = old.landed >= old.length ? right.length : 0;
      right.write = old.write;
      if (!old.phantom()) {
        right.replica.assign(old.replica.end() -
                                 static_cast<std::ptrdiff_t>(right.length),
                             old.replica.end());
        right.crc = crc32c(right.replica.data(), right.replica.size());
      }
      map.emplace(hi, std::move(right));
    }
  }
}

double IntegrityManager::register_write(int client, int fs_id,
                                        std::span<const Extent> extents,
                                        const std::byte* data) {
  File& file = files_[fs_id];
  FileMap& map = file.records;
  if (writes_registered_ == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("IntegrityManager: register_write count "
                              "exceeds the 32-bit block stamp");
  }
  const std::uint32_t write = ++writes_registered_;
  std::uint64_t total = 0;
  std::uint64_t pos = 0;  // cursor into the concatenated payload
  for (const Extent& extent : extents) {
    if (extent.length == 0) continue;
    erase_range(map, extent.offset, extent.end());
    std::uint64_t off = extent.offset;
    std::uint64_t left = extent.length;
    while (left > 0) {
      const std::uint64_t len = std::min(left, config_.block);
      Record record;
      record.length = len;
      record.write = write;
      if (data != nullptr) {
        const std::byte* src = data + pos;
        record.crc = crc32c(src, len);
        record.replica.assign(src, src + len);
      }
      map.emplace(off, std::move(record));
      ++file.counts.blocks;
      off += len;
      pos += len;
      left -= len;
    }
    total += extent.length;
  }
  file.counts.bytes_checksummed += total;
  (void)client;
  return static_cast<double>(total) / config_.checksum_bw;
}

template <typename Heal>
bool IntegrityManager::check_record(int client, int fs_id,
                                    std::uint64_t offset,
                                    const Record& record,
                                    const std::byte* actual, bool by_scrubber,
                                    Heal&& heal) {
  if (record.phantom() || actual == nullptr) return true;
  if (crc32c(actual, record.length) == record.crc) return true;
  note_detected(client, fs_id);
  if (config_.level == IntegrityLevel::Repair && !record.replica.empty()) {
    heal(record.replica);
    note_repaired(client, fs_id, by_scrubber);
    return true;
  }
  record_error(fs_id, offset, record.length);
  return false;
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
      const std::uint64_t at = pos + (it->first - extent.offset);
      std::byte* actual = data == nullptr ? nullptr : data + at;
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
    auto it = map.lower_bound(extent.offset);
    if (it != map.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.length > extent.offset) it = prev;
    }
    for (; it != map.end() && it->first < extent.end(); ++it) {
      const Record& record = it->second;
      if (record.phantom()) continue;
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

double IntegrityManager::scrub_all(int client, ObjectStore& store,
                                   bool by_scrubber) {
  std::uint64_t scanned = 0;
  std::vector<std::byte> actual;
  for (auto& [fs_id, file] : files_) {
    for (auto& [offset, record] : file.records) {
      // Skip phantom coverage and blocks still staged/in flight: the store
      // does not hold their bytes yet, so an audit would misread pending
      // data as corruption.
      if (record.phantom() || record.landed < record.length) continue;
      actual.resize(record.length);
      store.read(fs_id, offset, actual.data(), record.length);
      check_record(client, fs_id, offset, record, actual.data(), by_scrubber,
                   [&, off = offset](const std::vector<std::byte>& r) {
                     store.write(fs_id, off, r.data(), r.size());
                   });
      scanned += record.length;
    }
  }
  return static_cast<double>(scanned) / config_.checksum_bw;
}

void IntegrityManager::mark_landed(int fs_id, std::uint64_t offset,
                                   std::uint64_t length) {
  const auto found = files_.find(fs_id);
  if (found == files_.end() || length == 0) return;
  FileMap& map = found->second.records;
  const std::uint64_t hi = offset + length;
  auto it = map.lower_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.length > offset) it = prev;
  }
  for (; it != map.end() && it->first < hi; ++it) {
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
  errors_.emplace_back(fs_id, offset, length);
  ++files_[fs_id].counts.errors;
}

const IntegrityCounters& IntegrityManager::counters(int fs_id) const {
  static const IntegrityCounters kNone;
  const auto found = files_.find(fs_id);
  return found == files_.end() ? kNone : found->second.counts;
}

std::uint64_t IntegrityManager::pending_word() const {
  // Encode (file, offset) so the max across ranks picks one deterministic
  // error. Offsets fit comfortably in 48 bits at simulated scales.
  std::uint64_t word = 0;
  for (const CollectiveIoError& error : errors_) {
    const std::uint64_t encoded =
        (static_cast<std::uint64_t>(error.fs_id + 1) << 48) |
        (error.offset & 0xFFFFFFFFFFFFull);
    word = std::max(word, encoded);
  }
  return word;
}

CollectiveIoError IntegrityManager::error_of(std::uint64_t word) const {
  const int fs_id = static_cast<int>(word >> 48) - 1;
  const std::uint64_t offset = word & 0xFFFFFFFFFFFFull;
  for (const CollectiveIoError& error : errors_) {
    if (error.fs_id == fs_id && error.offset == offset) return error;
  }
  // Another rank recorded it (should not happen with a world-global log,
  // but keep the agreement total anyway).
  return CollectiveIoError(fs_id, offset, 0);
}

}  // namespace parcoll::fs
