#include "workloads/flashio.hpp"

#include <stdexcept>

#include "h5lite/h5lite.hpp"
#include "mpiio/file.hpp"
#include "workloads/pattern.hpp"

namespace parcoll::workloads {

namespace {
constexpr std::uint64_t kSalt = 0xF1A5;
}

FlashConfig FlashConfig::plotfile_centered() {
  FlashConfig config;
  config.nvars = 4;       // plot_var_1..4
  config.zone_size = 4;   // single precision
  config.dense_memory = true;
  return config;
}

FlashConfig FlashConfig::plotfile_corner() {
  FlashConfig config = plotfile_centered();
  config.corner = true;
  return config;
}

dtype::Datatype FlashConfig::block_memtype() const {
  if (dense_memory) {
    // Plotfiles stage converted data into a dense scratch buffer.
    return dtype::Datatype::bytes(block_bytes());
  }
  const std::int64_t g = nguard;
  const std::int64_t full = nxb + 2 * g;
  const std::int64_t sizes[3] = {full, full, full};
  const std::int64_t subsizes[3] = {nxb, nxb, nxb};
  const std::int64_t starts[3] = {g, g, g};
  return dtype::Datatype::subarray(sizes, subsizes, starts,
                                   dtype::Datatype::bytes(zone_bytes()));
}

dtype::Datatype FlashConfig::filetype(int rank, int nranks) const {
  std::vector<dtype::Segment> slots;
  slots.reserve(static_cast<std::size_t>(nblocks));
  for (int b = 0; b < nblocks; ++b) {
    const std::int64_t slot =
        interleaved_blocks
            ? static_cast<std::int64_t>(b) * nranks + rank
            : static_cast<std::int64_t>(rank) * nblocks + b;
    slots.push_back(dtype::Segment{
        slot * static_cast<std::int64_t>(block_bytes()), block_bytes()});
  }
  const std::int64_t dataset_bytes =
      static_cast<std::int64_t>(nranks) *
      static_cast<std::int64_t>(rank_var_bytes());
  return dtype::Datatype::from_segments(std::move(slots), 0, dataset_bytes);
}

RunResult run_flashio(const FlashConfig& config, int nranks,
                      const RunSpec& spec, bool write) {
  const mpiio::Hints hints = spec.hints();
  return Driver::run(nranks, spec, config.checkpoint_bytes(nranks),
                     [&](mpi::Rank& self, Driver& driver) {
    mpiio::FileHandle file(self, self.comm_world(), "flash.chk", hints);
    file.set_view(0, config.zone_bytes(),
                  config.filetype(self.rank(), nranks));
    const dtype::Datatype memtype = config.block_memtype();
    const auto nblocks = static_cast<std::uint64_t>(config.nblocks);
    const std::uint64_t var_bytes = config.rank_var_bytes();
    const std::uint64_t var_etypes = var_bytes / config.zone_bytes();
    const auto var_extents = [&](int v) {
      return file.view().map(static_cast<std::uint64_t>(v) * var_etypes,
                             var_bytes);
    };

    std::vector<std::byte> buffer;
    if (spec.byte_true) {
      buffer.resize(static_cast<std::uint64_t>(memtype.extent()) * nblocks);
      if (!write) {
        for (int v = 0; v < config.nvars; ++v) {
          fill_buffer_for_extents(buffer.data(), memtype, nblocks,
                                  var_extents(v), kSalt);
          file.write_at(static_cast<std::uint64_t>(v) * var_etypes,
                        buffer.data(), nblocks, memtype);
        }
        std::fill(buffer.begin(), buffer.end(), std::byte{0});
      }
    }

    bool verified = true;
    driver.measure(self, file.comm(), [&] {
      for (int v = 0; v < config.nvars; ++v) {
        std::vector<fs::Extent> extents;
        if (spec.byte_true) {
          extents = var_extents(v);
          if (write) {
            fill_buffer_for_extents(buffer.data(), memtype, nblocks, extents,
                                    kSalt);
          }
        }
        transfer(spec, file, write,
                 static_cast<std::uint64_t>(v) * var_etypes,
                 buffer.empty() ? nullptr : buffer.data(), nblocks, memtype);
        if (spec.byte_true && !write) {
          verified = verified &&
                     check_buffer_for_extents(buffer.data(), memtype, nblocks,
                                              extents, kSalt);
        }
      }
    });

    file.close();
    for (int v = 0; spec.byte_true && write && verified && v < config.nvars;
         ++v) {
      verified = Driver::stored(self, file.fs_id(), var_extents(v), kSalt);
    }
    driver.report(self, file.stats(), verified);
  });
}

namespace {

/// Selection of this rank's blocks within a per-block record dataset of
/// `rec_bytes` per block (AMR-interleaved slots, like the variables).
dtype::Datatype block_record_selection(const FlashConfig& config, int rank,
                                       int nranks, std::uint64_t rec_bytes) {
  std::vector<dtype::Segment> slots;
  slots.reserve(static_cast<std::size_t>(config.nblocks));
  for (int b = 0; b < config.nblocks; ++b) {
    const std::int64_t slot =
        config.interleaved_blocks
            ? static_cast<std::int64_t>(b) * nranks + rank
            : static_cast<std::int64_t>(rank) * config.nblocks + b;
    slots.push_back(dtype::Segment{
        slot * static_cast<std::int64_t>(rec_bytes), rec_bytes});
  }
  const std::int64_t total = static_cast<std::int64_t>(rec_bytes) * nranks *
                             config.nblocks;
  return dtype::Datatype::from_segments(std::move(slots), 0, total);
}

}  // namespace

RunResult run_flashio_h5(const FlashConfig& config, int nranks,
                         const RunSpec& spec) {
  const mpiio::Hints hints = spec.hints();
  constexpr std::uint64_t kSalt = 0xF1A6;
  return Driver::run(nranks, spec, config.checkpoint_bytes(nranks),
                     [&](mpi::Rank& self, Driver& driver) {
    auto file = h5::H5File::create(self, self.comm_world(), "flash_h5.chk",
                                   hints);
    const auto total_blocks =
        static_cast<std::uint64_t>(nranks) * config.nblocks;
    const auto n = static_cast<std::uint64_t>(config.block_side());
    const auto selection = config.filetype(self.rank(), nranks);
    // A variable's extents: its selection at the dataset's file offset.
    const auto var_extents = [&](const h5::DatasetInfo& info) {
      std::vector<fs::Extent> extents;
      for (const auto& seg : selection.segments()) {
        extents.push_back(fs::Extent{
            info.data_offset + static_cast<std::uint64_t>(seg.disp),
            seg.length});
      }
      return extents;
    };
    std::vector<std::string> var_names;

    driver.measure(self, file.raw().comm(), [&] {
      // File-level attributes (simulation metadata), then the per-block
      // bookkeeping datasets — the small-record HDF5 overhead.
      file.write_attribute("file format version",
                           {std::byte{7}, std::byte{0}, std::byte{0},
                            std::byte{0}});
      struct Record {
        const char* name;
        std::uint64_t bytes;
      };
      const Record records[] = {
          {"lrefine", 4}, {"node type", 4},   {"coordinates", 24},
          {"block size", 24}, {"bounding box", 48},
      };
      for (const Record& record : records) {
        file.create_dataset(record.name, {total_blocks}, record.bytes);
        const auto record_selection =
            block_record_selection(config, self.rank(), nranks, record.bytes);
        const std::uint64_t bytes = record.bytes * config.nblocks;
        std::vector<std::byte> data;
        if (spec.byte_true) {
          data.resize(bytes);
        }
        file.write_dataset(record.name, record_selection,
                           data.empty() ? nullptr : data.data(),
                           spec.byte_true ? 1 : 0,
                           dtype::Datatype::bytes(bytes));
      }

      // The unknowns: one dataset per variable, AMR-interleaved block
      // slots.
      const dtype::Datatype memtype = config.block_memtype();
      const auto nblocks = static_cast<std::uint64_t>(config.nblocks);
      std::vector<std::byte> buffer;
      if (spec.byte_true) {
        buffer.resize(static_cast<std::uint64_t>(memtype.extent()) * nblocks);
      }
      for (int v = 0; v < config.nvars; ++v) {
        char name[16];
        std::snprintf(name, sizeof(name), "var%02d", v);
        var_names.push_back(name);
        const auto& info = file.create_dataset(
            name, {total_blocks, n, n, n}, config.zone_bytes());
        if (spec.byte_true) {
          // Fill so that the bytes landing in the file match the pattern
          // at their absolute offsets.
          fill_buffer_for_extents(buffer.data(), memtype, nblocks,
                                  var_extents(info), kSalt);
        }
        file.write_dataset(name, selection,
                           buffer.empty() ? nullptr : buffer.data(), nblocks,
                           memtype);
      }
    });

    file.close();
    bool verified = true;
    for (std::size_t i = 0; spec.byte_true && verified && i < var_names.size();
         ++i) {
      verified = Driver::stored(self, file.raw().fs_id(),
                                var_extents(file.dataset(var_names[i])), kSalt);
    }
    driver.report(self, file.raw().stats(), verified);
  });
}

}  // namespace parcoll::workloads
