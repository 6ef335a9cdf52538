// Byte storage behind the simulated file system.
//
// MemoryStore keeps real file contents so tests can verify, byte for byte,
// that collective I/O protocols put the right data in the right place. It
// keeps only the pages something was written to, so a file's memory
// follows the bytes written, not the highest offset.
// PhantomStore keeps only bookkeeping (sizes, request counts) so benches can
// run paper-scale workloads (hundreds of GB of simulated I/O) through the
// identical code path without allocating the payload. Its sizes sit in a
// flat table indexed by file id.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace parcoll::fs {

enum class StoreMode { Memory, Phantom };

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Write `length` bytes at `offset`; `data` may be nullptr (phantom write:
  /// bookkeeping only). Files grow as needed; gaps read back as zeros.
  virtual void write(int file_id, std::uint64_t offset, const std::byte* data,
                     std::uint64_t length) = 0;

  /// Read `length` bytes at `offset` into `out` (may be nullptr).
  virtual void read(int file_id, std::uint64_t offset, std::byte* out,
                    std::uint64_t length) = 0;

  /// High-water mark: one past the highest byte ever written.
  [[nodiscard]] virtual std::uint64_t size(int file_id) const = 0;

  /// Digest of every file's id, size, and contents (canonical id order);
  /// the model checker compares it across schedules and fault plans to
  /// assert byte-identical outcomes. Phantom stores hold no bytes: 0.
  [[nodiscard]] virtual std::uint64_t content_digest() const { return 0; }
};

class MemoryStore final : public ObjectStore {
 public:
  void write(int file_id, std::uint64_t offset, const std::byte* data,
             std::uint64_t length) override;
  void read(int file_id, std::uint64_t offset, std::byte* out,
            std::uint64_t length) override;
  [[nodiscard]] std::uint64_t size(int file_id) const override;
  [[nodiscard]] std::uint64_t content_digest() const override;

  /// Bytes per page; a page exists once any byte in it was written.
  static constexpr std::uint64_t kPageBytes = 64 << 10;

 private:
  struct File {
    std::map<std::uint64_t, std::unique_ptr<std::byte[]>> pages;  // by index
    std::uint64_t size = 0;  // one past the highest byte written
  };
  std::unordered_map<int, File> files_;
};

class PhantomStore final : public ObjectStore {
 public:
  // Inline and final: LustreSim's piece loop calls these through a
  // PhantomStore*, so a piece costs neither a virtual call nor a lookup.
  void write(int file_id, std::uint64_t offset, const std::byte* /*data*/,
             std::uint64_t length) override {
    std::uint64_t& high = high_water(file_id);
    high = std::max(high, offset + length);
    bytes_written_ += length;
    ++write_ops_;
  }
  void read(int /*file_id*/, std::uint64_t /*offset*/, std::byte* out,
            std::uint64_t length) override {
    if (out != nullptr && length > 0) {
      std::memset(out, 0, length);
    }
    bytes_read_ += length;
    ++read_ops_;
  }
  [[nodiscard]] std::uint64_t size(int file_id) const override;

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t write_ops() const { return write_ops_; }
  [[nodiscard]] std::uint64_t read_ops() const { return read_ops_; }

 private:
  std::uint64_t& high_water(int file_id) {
    const auto at = static_cast<std::size_t>(file_id);
    if (at >= high_water_.size()) grow(file_id);
    return high_water_[at];
  }
  /// Extend the table to hold `file_id` (a negative id throws).
  void grow(int file_id);

  /// One past the highest byte written, by file id (ids are dense).
  std::vector<std::uint64_t> high_water_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t write_ops_ = 0;
  std::uint64_t read_ops_ = 0;
};

}  // namespace parcoll::fs
