// Deterministic verification patterns.
//
// Correctness of the collective protocols is checked end to end: every
// byte of the file must equal a pure function of its absolute file offset.
// Writers fill their buffers so that the packed stream carries the pattern
// of the extents it will land on; afterwards the MemoryStore is audited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dtype/datatype.hpp"
#include "fs/object_store.hpp"
#include "fs/stripe.hpp"

namespace parcoll::workloads {

/// The expected byte at absolute file offset `position`.
[[nodiscard]] std::byte pattern_byte(std::uint64_t salt, std::uint64_t position);

/// Fill `stream` with the pattern of `extents` walked in order (the packed
/// representation of a request covering those extents).
void fill_stream(std::byte* stream, std::span<const fs::Extent> extents,
                 std::uint64_t salt);

/// True if `stream` carries exactly the pattern of `extents`.
[[nodiscard]] bool check_stream(const std::byte* stream,
                                std::span<const fs::Extent> extents,
                                std::uint64_t salt);

/// Fill a user buffer laid out as `count` x `memtype` so that packing it
/// yields fill_stream(extents). Requires count * memtype.size() == total
/// extent length.
void fill_buffer_for_extents(void* buffer, const dtype::Datatype& memtype,
                             std::uint64_t count,
                             std::span<const fs::Extent> extents,
                             std::uint64_t salt);

/// Check a user buffer (inverse of fill_buffer_for_extents).
[[nodiscard]] bool check_buffer_for_extents(const void* buffer,
                                            const dtype::Datatype& memtype,
                                            std::uint64_t count,
                                            std::span<const fs::Extent> extents,
                                            std::uint64_t salt);

/// Audit the stored file bytes over `extents` against the pattern.
[[nodiscard]] bool verify_store(fs::MemoryStore& store, int file_id,
                                std::span<const fs::Extent> extents,
                                std::uint64_t salt);

}  // namespace parcoll::workloads
