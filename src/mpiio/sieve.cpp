#include "mpiio/sieve.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "mpiio/ext2ph.hpp"

namespace parcoll::mpiio {

namespace {

/// One sieve window: the pieces of the request it covers and the file span
/// [lo, hi) that must be read/written whole.
struct Window {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t first_piece = 0;
  std::size_t piece_count = 0;
};

/// Group the request's extents into windows of at most `sieve` file bytes,
/// starting each window at a piece boundary. Like ROMIO's writebuf, a
/// window spans the full buffer length (clipped to the end of the whole
/// request), not just to its last piece — the read-modify-write covers
/// whatever else lives in the window, which is what couples interleaved
/// writers.
std::vector<Window> plan_windows(const std::vector<fs::Extent>& extents,
                                 std::uint64_t sieve) {
  std::vector<Window> windows;
  const std::uint64_t request_end = extents.back().end();
  std::size_t i = 0;
  while (i < extents.size()) {
    Window window;
    window.lo = extents[i].offset;
    window.first_piece = i;
    std::uint64_t hi = std::min(window.lo + sieve, request_end);
    while (i < extents.size() && extents[i].end() <= hi) {
      ++i;
      ++window.piece_count;
    }
    if (window.piece_count == 0) {
      // A single piece larger than the buffer: take it whole (it is
      // contiguous, so no sieving is actually needed for it).
      hi = extents[i].end();
      ++i;
      window.piece_count = 1;
    } else if (i < extents.size() && extents[i].offset < hi) {
      // The next piece straddles the window end: stop the window before it
      // rather than splitting the piece.
      hi = extents[i].offset;
    }
    window.hi = hi;
    windows.push_back(window);
  }
  return windows;
}

/// The locked RMW write loop over a prepared request's windows.
void sieve_write_windows(mpi::Rank& self, int fs_id, PreparedRequest& request,
                         std::uint64_t sieve_buffer_size) {
  auto& fs = self.world().fs();
  DirectTarget target(fs, fs_id);
  const auto windows = plan_windows(request.extents, sieve_buffer_size);
  std::vector<std::byte> window_buffer;
  std::uint64_t stream_pos = 0;
  for (const Window& window : windows) {
    const fs::Extent span{window.lo, window.hi - window.lo};
    fs.range_locks().lock(self.rank(), fs_id, span);
    const bool byte_true = self.world().byte_true();
    if (byte_true) window_buffer.assign(span.length, std::byte{0});
    target.read(self, std::span(&span, 1),
                byte_true ? window_buffer.data() : nullptr);
    std::uint64_t merged = 0;
    for (std::size_t k = 0; k < window.piece_count; ++k) {
      const fs::Extent& piece = request.extents[window.first_piece + k];
      if (byte_true && request.data() != nullptr) {
        std::memcpy(window_buffer.data() + (piece.offset - span.offset),
                    request.data() + stream_pos, piece.length);
      }
      stream_pos += piece.length;
      merged += piece.length;
    }
    self.touch_bytes(static_cast<double>(merged));
    target.write(self, std::span(&span, 1),
                 byte_true ? window_buffer.data() : nullptr);
    fs.range_locks().unlock(self.rank(), fs_id, span);
  }
}

/// The sieving read loop over a prepared request's windows.
void sieve_read_windows(mpi::Rank& self, int fs_id, PreparedRequest& request,
                        std::uint64_t sieve_buffer_size) {
  DirectTarget target(self.world().fs(), fs_id);
  const auto windows = plan_windows(request.extents, sieve_buffer_size);
  std::vector<std::byte> window_buffer;
  const bool byte_true = !request.packed.empty();
  std::uint64_t stream_pos = 0;
  for (const Window& window : windows) {
    const fs::Extent span{window.lo, window.hi - window.lo};
    if (byte_true) window_buffer.assign(span.length, std::byte{0});
    target.read(self, std::span(&span, 1),
                byte_true ? window_buffer.data() : nullptr);
    std::uint64_t extracted = 0;
    for (std::size_t k = 0; k < window.piece_count; ++k) {
      const fs::Extent& piece = request.extents[window.first_piece + k];
      if (byte_true) {
        std::memcpy(request.packed.data() + stream_pos,
                    window_buffer.data() + (piece.offset - span.offset),
                    piece.length);
      }
      stream_pos += piece.length;
      extracted += piece.length;
    }
    self.touch_bytes(static_cast<double>(extracted));
  }
}

/// sieve_*_at: the lifecycle around the sieve service, straight to the
/// file system.
void sieve_call(FileHandle& file, bool is_write, std::uint64_t offset,
                const void* buffer, std::uint64_t count,
                const dtype::Datatype& memtype,
                std::uint64_t sieve_buffer_size) {
  file.independent_call(is_write, offset, buffer, count, memtype,
                        [&](IoTarget& target, PreparedRequest& request) {
                          sieve_serve(file.self(), target, file.fs_id(),
                                      request, is_write, sieve_buffer_size);
                        });
}

}  // namespace

void sieve_serve(mpi::Rank& self, IoTarget& target, int fs_id,
                 PreparedRequest& request, bool is_write,
                 std::uint64_t sieve_buffer_size) {
  if (request.extents.size() <= 1) {
    target.transfer(self, request.extents, request.data(), is_write);
  } else if (is_write) {
    sieve_write_windows(self, fs_id, request, sieve_buffer_size);
  } else {
    sieve_read_windows(self, fs_id, request, sieve_buffer_size);
  }
}

void sieve_write_at(FileHandle& file, std::uint64_t offset, const void* buffer,
                    std::uint64_t count, const dtype::Datatype& memtype,
                    std::uint64_t sieve_buffer_size) {
  sieve_call(file, true, offset, buffer, count, memtype, sieve_buffer_size);
}

void sieve_read_at(FileHandle& file, std::uint64_t offset, void* buffer,
                   std::uint64_t count, const dtype::Datatype& memtype,
                   std::uint64_t sieve_buffer_size) {
  sieve_call(file, false, offset, buffer, count, memtype, sieve_buffer_size);
}

}  // namespace parcoll::mpiio
