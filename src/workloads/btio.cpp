#include "workloads/btio.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mpi/collectives.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::workloads {

namespace {

constexpr std::uint64_t kSalt = 0xB710;

int isqrt_exact(int value) {
  const int root = static_cast<int>(std::lround(std::sqrt(value)));
  if (root * root != value) {
    throw std::invalid_argument("BT-IO: process count must be a perfect square");
  }
  return root;
}

}  // namespace

dtype::Datatype BtIOConfig::filetype(int rank, int nranks) const {
  const int nc = isqrt_exact(nranks);
  const int pi = rank / nc;
  const int pj = rank % nc;
  const auto bound = [&](int c) {
    return static_cast<std::int64_t>(c) * grid / nc;
  };
  std::vector<dtype::Segment> rows;
  for (int k = 0; k < nc; ++k) {
    // Diagonal multi-partitioning: the k-th cell of processor (pi, pj)
    // shifts one position per z-slab.
    const int cx = (pj + k) % nc;
    const int cy = (pi + k) % nc;
    const int cz = k;
    const std::int64_t x0 = bound(cx);
    const std::int64_t row_len = (bound(cx + 1) - x0) *
                                 static_cast<std::int64_t>(elem_bytes);
    for (std::int64_t z = bound(cz); z < bound(cz + 1); ++z) {
      for (std::int64_t y = bound(cy); y < bound(cy + 1); ++y) {
        const std::int64_t disp =
            ((z * grid + y) * grid + x0) * static_cast<std::int64_t>(elem_bytes);
        rows.push_back(dtype::Segment{disp, static_cast<std::uint64_t>(row_len)});
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const dtype::Segment& a, const dtype::Segment& b) {
              return a.disp < b.disp;
            });
  return dtype::Datatype::from_segments(
      std::move(rows), 0, static_cast<std::int64_t>(step_bytes()));
}

std::uint64_t BtIOConfig::rank_bytes(int rank, int nranks) const {
  const int nc = isqrt_exact(nranks);
  const int pi = rank / nc;
  const int pj = rank % nc;
  const auto width = [&](int c) {
    return static_cast<std::uint64_t>((c + 1) * grid / nc - c * grid / nc);
  };
  std::uint64_t total = 0;
  for (int k = 0; k < nc; ++k) {
    total += width((pj + k) % nc) * width((pi + k) % nc) * width(k);
  }
  return total * elem_bytes;
}

RunResult run_btio(const BtIOConfig& config, int nranks, const RunSpec& spec,
                   bool write) {
  const mpiio::Hints hints = spec.hints();
  return Driver::run(
      nranks, spec,
      config.step_bytes() * static_cast<std::uint64_t>(config.nsteps),
      [&](mpi::Rank& self, Driver& driver) {
    mpiio::FileHandle file(self, self.comm_world(), "btio.dat", hints);
    file.set_view(0, config.elem_bytes, config.filetype(self.rank(), nranks));
    const std::uint64_t my_bytes = config.rank_bytes(self.rank(), nranks);
    const std::uint64_t my_etypes = my_bytes / config.elem_bytes;
    const dtype::Datatype memtype = dtype::Datatype::bytes(my_bytes);
    const auto step_extents = [&](int s) {
      return file.view().map(static_cast<std::uint64_t>(s) * my_etypes,
                             my_bytes);
    };

    std::vector<std::byte> buffer;
    if (spec.byte_true) {
      buffer.resize(my_bytes);
      if (!write) {
        for (int s = 0; s < config.nsteps; ++s) {
          fill_stream(buffer.data(), step_extents(s), kSalt);
          file.write_at(static_cast<std::uint64_t>(s) * my_etypes,
                        buffer.data(), 1, memtype);
        }
        std::fill(buffer.begin(), buffer.end(), std::byte{0});
      }
    }

    bool verified = true;
    driver.measure(self, file.comm(), [&] {
      for (int s = 0; s < config.nsteps; ++s) {
        std::vector<fs::Extent> extents;
        if (spec.byte_true) {
          extents = step_extents(s);
          if (write) fill_stream(buffer.data(), extents, kSalt);
        }
        transfer(spec, file, write,
                 static_cast<std::uint64_t>(s) * my_etypes,
                 buffer.empty() ? nullptr : buffer.data(), 1, memtype);
        if (spec.byte_true && !write) {
          verified = verified && check_stream(buffer.data(), extents, kSalt);
        }
      }
    });

    file.close();
    for (int s = 0; spec.byte_true && write && verified && s < config.nsteps;
         ++s) {
      verified = Driver::stored(self, file.fs_id(), step_extents(s), kSalt);
    }
    driver.report(self, file.stats(), verified);
  });
}

RunResult run_btio_epio(const BtIOConfig& config, int nranks,
                        const RunSpec& spec) {
  return Driver::run(
      nranks, spec,
      config.step_bytes() * static_cast<std::uint64_t>(config.nsteps),
      [&](mpi::Rank& self, Driver& driver) {
    // One private file per process; a per-rank communicator keeps the
    // open/close collective semantics trivial.
    const mpi::Comm own = mpi::comm_split(self, self.comm_world(),
                                          self.rank(), 0);
    char name[64];
    std::snprintf(name, sizeof(name), "btio_ep_%05d.dat", self.rank());
    mpiio::Hints hints = spec.hints();
    hints.striping_factor = 4;  // per-process files stripe narrowly
    mpiio::FileHandle file(self, own, name, hints);
    const std::uint64_t my_bytes = config.rank_bytes(self.rank(), nranks);
    const dtype::Datatype memtype = dtype::Datatype::bytes(my_bytes);
    const auto step_extent = [&](int s) {
      return fs::Extent{static_cast<std::uint64_t>(s) * my_bytes, my_bytes};
    };
    std::vector<std::byte> buffer;
    if (spec.byte_true) buffer.resize(my_bytes);

    driver.measure(self, self.comm_world(), [&] {
      for (int s = 0; s < config.nsteps; ++s) {
        const fs::Extent extent = step_extent(s);
        if (spec.byte_true) {
          fill_stream(buffer.data(), std::span(&extent, 1), kSalt);
        }
        file.write_at(extent.offset, buffer.empty() ? nullptr : buffer.data(),
                      1, memtype);
      }
    });

    file.close();
    bool verified = true;
    for (int s = 0; spec.byte_true && verified && s < config.nsteps; ++s) {
      const fs::Extent extent = step_extent(s);
      verified =
          Driver::stored(self, file.fs_id(), std::span(&extent, 1), kSalt);
    }
    driver.report(self, file.stats(), verified);
  });
}

}  // namespace parcoll::workloads
