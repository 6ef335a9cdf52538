#include "workloads/tileio.hpp"

#include <stdexcept>

#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::workloads {

namespace {
constexpr std::uint64_t kSalt = 0x711E;
}

TileIOConfig TileIOConfig::paper(int nranks) {
  TileIOConfig config;
  config.tiles_x = nranks >= 8 ? 8 : nranks;
  return config;
}

dtype::Datatype TileIOConfig::filetype(int rank, int nranks) const {
  if (tiles_x <= 0 || nranks % tiles_x != 0) {
    throw std::invalid_argument("TileIOConfig: tiles_x must divide nranks");
  }
  const int ty = rank / tiles_x;
  const int tx = rank % tiles_x;
  const std::int64_t rows = static_cast<std::int64_t>(tiles_y(nranks)) *
                            static_cast<std::int64_t>(tile_h);
  const std::int64_t cols = static_cast<std::int64_t>(tiles_x) *
                            static_cast<std::int64_t>(tile_w);
  const std::int64_t sizes[2] = {rows, cols};
  // Overlap extends the sub-block into the neighbours, clamped at edges.
  std::int64_t y0 = static_cast<std::int64_t>(ty) *
                        static_cast<std::int64_t>(tile_h) -
                    static_cast<std::int64_t>(overlap_y);
  std::int64_t x0 = static_cast<std::int64_t>(tx) *
                        static_cast<std::int64_t>(tile_w) -
                    static_cast<std::int64_t>(overlap_x);
  std::int64_t y1 = static_cast<std::int64_t>(ty + 1) *
                        static_cast<std::int64_t>(tile_h) +
                    static_cast<std::int64_t>(overlap_y);
  std::int64_t x1 = static_cast<std::int64_t>(tx + 1) *
                        static_cast<std::int64_t>(tile_w) +
                    static_cast<std::int64_t>(overlap_x);
  y0 = std::max<std::int64_t>(y0, 0);
  x0 = std::max<std::int64_t>(x0, 0);
  y1 = std::min(y1, rows);
  x1 = std::min(x1, cols);
  const std::int64_t subsizes[2] = {y1 - y0, x1 - x0};
  const std::int64_t starts[2] = {y0, x0};
  return dtype::Datatype::subarray(sizes, subsizes, starts,
                                   dtype::Datatype::bytes(elem_size));
}

std::uint64_t TileIOConfig::rank_bytes_overlapped(int rank, int nranks) const {
  return filetype(rank, nranks).size();
}

RunResult run_tileio(const TileIOConfig& config, int nranks,
                     const RunSpec& spec, bool write) {
  if (write && (config.overlap_x > 0 || config.overlap_y > 0)) {
    throw std::invalid_argument(
        "run_tileio: overlapped tiles are read-only (overlapping concurrent "
        "writes are ill-defined)");
  }
  const mpiio::Hints hints = spec.hints();
  return Driver::run(nranks, spec, config.file_bytes(nranks),
                     [&](mpi::Rank& self, Driver& driver) {
    mpiio::FileHandle file(self, self.comm_world(), "tileio.dat", hints);
    file.set_view(0, config.elem_size, config.filetype(self.rank(), nranks));
    const dtype::Datatype memtype =
        dtype::Datatype::bytes(config.rank_bytes_overlapped(self.rank(),
                                                            nranks));

    const std::uint64_t my_bytes = memtype.size();
    std::vector<std::byte> buffer;
    std::vector<fs::Extent> extents;
    if (spec.byte_true) {
      extents = file.view().map(0, my_bytes);
      buffer.resize(my_bytes);
      fill_buffer_for_extents(buffer.data(), memtype, 1, extents, kSalt);
      if (!write) {
        // Pre-populate the file (outside the measured phase) so the read
        // has real bytes to fetch.
        file.write_at(0, buffer.data(), 1, memtype);
        std::fill(buffer.begin(), buffer.end(), std::byte{0});
      }
    }

    driver.measure(self, file.comm(), [&] {
      transfer(spec, file, write, 0,
               buffer.empty() ? nullptr : buffer.data(), 1, memtype);
    });

    file.close();
    bool verified = true;
    if (spec.byte_true) {
      verified = write ? Driver::stored(self, file.fs_id(), extents, kSalt)
                       : check_buffer_for_extents(buffer.data(), memtype, 1,
                                                  extents, kSalt);
    }
    driver.report(self, file.stats(), verified);
  });
}

}  // namespace parcoll::workloads
