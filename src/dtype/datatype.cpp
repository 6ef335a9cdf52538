#include "dtype/datatype.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace parcoll::dtype {

namespace {

/// Append `base`'s segments shifted by `disp`, and widen [lb, ub].
void place(std::vector<Segment>& out, std::int64_t& lb, std::int64_t& ub,
           bool& first, const Datatype& base, std::int64_t disp) {
  for (const Segment& seg : base.segments()) {
    out.push_back(Segment{seg.disp + disp, seg.length});
  }
  const std::int64_t copy_lb = disp + base.lb();
  const std::int64_t copy_ub = disp + base.ub();
  if (first) {
    lb = copy_lb;
    ub = copy_ub;
    first = false;
  } else {
    lb = std::min(lb, copy_lb);
    ub = std::max(ub, copy_ub);
  }
}

}  // namespace

Datatype::Datatype() {
  // Every empty datatype shares one state, so default-constructing one
  // (a call record's placeholder, say) allocates nothing.
  static const auto empty = std::make_shared<const State>();
  state_ = empty;
}

Datatype Datatype::make(std::vector<Segment> segments, std::int64_t lb,
                        std::int64_t ub) {
  coalesce(segments);
  auto state = std::make_shared<State>();
  state->size = total_length(segments);
  state->segments = std::move(segments);
  state->lb = lb;
  state->ub = ub;
  return Datatype(std::move(state));
}

Datatype Datatype::bytes(std::uint64_t n) {
  if (n == 0) return Datatype();
  return make({Segment{0, n}}, 0, static_cast<std::int64_t>(n));
}

Datatype Datatype::contiguous(std::uint64_t count, const Datatype& base) {
  return hvector(count, 1, base.extent(), base);
}

Datatype Datatype::vec(std::uint64_t count, std::uint64_t blocklen,
                       std::int64_t stride, const Datatype& base) {
  return hvector(count, blocklen, stride * base.extent(), base);
}

Datatype Datatype::hvector(std::uint64_t count, std::uint64_t blocklen,
                           std::int64_t stride_bytes, const Datatype& base) {
  std::vector<Segment> segments;
  segments.reserve(count * blocklen * base.segments().size());
  std::int64_t lb = 0;
  std::int64_t ub = 0;
  bool first = true;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t block_disp = static_cast<std::int64_t>(k) * stride_bytes;
    for (std::uint64_t j = 0; j < blocklen; ++j) {
      place(segments, lb, ub, first, base,
            block_disp + static_cast<std::int64_t>(j) * base.extent());
    }
  }
  return make(std::move(segments), lb, ub);
}

Datatype Datatype::indexed(std::span<const IndexedBlock> blocks,
                           const Datatype& base) {
  std::vector<IndexedBlock> byte_blocks(blocks.begin(), blocks.end());
  for (IndexedBlock& block : byte_blocks) {
    block.disp *= base.extent();
  }
  return hindexed(byte_blocks, base);
}

Datatype Datatype::hindexed(std::span<const IndexedBlock> blocks,
                            const Datatype& base) {
  std::vector<Segment> segments;
  std::int64_t lb = 0;
  std::int64_t ub = 0;
  bool first = true;
  for (const IndexedBlock& block : blocks) {
    for (std::uint64_t j = 0; j < block.count; ++j) {
      place(segments, lb, ub, first, base,
            block.disp + static_cast<std::int64_t>(j) * base.extent());
    }
  }
  return make(std::move(segments), lb, ub);
}

Datatype Datatype::structured(std::span<const StructField> fields) {
  std::vector<Segment> segments;
  std::int64_t lb = 0;
  std::int64_t ub = 0;
  bool first = true;
  for (const StructField& field : fields) {
    for (std::uint64_t j = 0; j < field.count; ++j) {
      place(segments, lb, ub, first, *field.type,
            field.disp + static_cast<std::int64_t>(j) * field.type->extent());
    }
  }
  return make(std::move(segments), lb, ub);
}

Datatype Datatype::subarray(std::span<const std::int64_t> sizes,
                            std::span<const std::int64_t> subsizes,
                            std::span<const std::int64_t> starts,
                            const Datatype& element, Order order) {
  const std::size_t ndims = sizes.size();
  if (subsizes.size() != ndims || starts.size() != ndims || ndims == 0) {
    throw std::invalid_argument("subarray: dimension mismatch");
  }
  std::vector<std::int64_t> dim_sizes(sizes.begin(), sizes.end());
  std::vector<std::int64_t> dim_subsizes(subsizes.begin(), subsizes.end());
  std::vector<std::int64_t> dim_starts(starts.begin(), starts.end());
  if (order == Order::Fortran) {
    // Fortran order: first dimension varies fastest. Equivalent to C order
    // with the dimension lists reversed.
    std::reverse(dim_sizes.begin(), dim_sizes.end());
    std::reverse(dim_subsizes.begin(), dim_subsizes.end());
    std::reverse(dim_starts.begin(), dim_starts.end());
  }
  std::int64_t total_elems = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    if (dim_sizes[d] <= 0 || dim_subsizes[d] < 0 || dim_starts[d] < 0 ||
        dim_starts[d] + dim_subsizes[d] > dim_sizes[d]) {
      throw std::invalid_argument("subarray: bad sizes/subsizes/starts");
    }
    total_elems *= dim_sizes[d];
  }
  // Row strides in elements (C order: last dim stride 1).
  std::vector<std::int64_t> stride(ndims, 1);
  for (std::size_t d = ndims - 1; d > 0; --d) {
    stride[d - 1] = stride[d] * dim_sizes[d];
  }
  const std::int64_t elem_extent = element.extent();
  const bool dense_element = element.segments().size() == 1 &&
                             element.segments()[0].disp == 0 &&
                             static_cast<std::int64_t>(element.size()) ==
                                 elem_extent &&
                             element.lb() == 0;

  std::vector<Segment> segments;
  std::int64_t lb = 0;
  std::int64_t ub = total_elems * elem_extent;
  bool first = true;

  // Iterate all positions in the sub-block over the outer ndims-1 dims;
  // the innermost dim is a run.
  std::vector<std::int64_t> index(ndims, 0);
  bool empty = false;
  for (std::size_t d = 0; d < ndims; ++d) {
    if (dim_subsizes[d] == 0) empty = true;
  }
  while (!empty) {
    std::int64_t elem_offset = 0;
    for (std::size_t d = 0; d < ndims; ++d) {
      elem_offset += (dim_starts[d] + index[d]) * stride[d];
    }
    const std::int64_t byte_offset = elem_offset * elem_extent;
    const auto run = static_cast<std::uint64_t>(dim_subsizes[ndims - 1]);
    if (dense_element) {
      segments.push_back(Segment{
          byte_offset, run * static_cast<std::uint64_t>(elem_extent)});
      if (first) first = false;
    } else {
      for (std::uint64_t j = 0; j < run; ++j) {
        place(segments, lb, ub, first, element,
              byte_offset + static_cast<std::int64_t>(j) * elem_extent);
      }
    }
    // Advance the multi-index over the outer dims (innermost handled above).
    std::size_t d = ndims - 1;
    while (true) {
      if (d == 0) {
        empty = true;  // done
        break;
      }
      --d;
      if (++index[d] < dim_subsizes[d]) break;
      index[d] = 0;
    }
    if (ndims == 1) break;
  }
  // The subarray's extent is always the full global array regardless of
  // where the data sits.
  lb = 0;
  ub = total_elems * elem_extent;
  return make(std::move(segments), lb, ub);
}

Datatype Datatype::resized(const Datatype& base, std::int64_t lb,
                           std::uint64_t extent) {
  std::vector<Segment> segments = base.segments();
  return make(std::move(segments), lb, lb + static_cast<std::int64_t>(extent));
}

Datatype Datatype::from_segments(std::vector<Segment> segments,
                                 std::int64_t lb, std::int64_t ub) {
  return make(std::move(segments), lb, ub);
}

Datatype Datatype::darray(int rank, std::span<const std::int64_t> sizes,
                          std::span<const Distribution> dists,
                          std::span<const std::int64_t> dargs,
                          std::span<const std::int64_t> psizes,
                          const Datatype& element) {
  const std::size_t ndims = sizes.size();
  if (dists.size() != ndims || dargs.size() != ndims ||
      psizes.size() != ndims || ndims == 0) {
    throw std::invalid_argument("darray: dimension mismatch");
  }
  std::int64_t nprocs = 1;
  for (std::int64_t p : psizes) {
    if (p <= 0) throw std::invalid_argument("darray: bad process grid");
    nprocs *= p;
  }
  if (rank < 0 || rank >= nprocs) {
    throw std::invalid_argument("darray: rank outside the process grid");
  }
  // C-order decomposition of the rank into grid coordinates.
  std::vector<std::int64_t> coords(ndims);
  {
    std::int64_t rest = rank;
    for (std::size_t d = ndims; d-- > 0;) {
      coords[d] = rest % psizes[d];
      rest /= psizes[d];
    }
  }
  // Owned global indices per dimension.
  std::vector<std::vector<std::int64_t>> owned(ndims);
  for (std::size_t d = 0; d < ndims; ++d) {
    if (sizes[d] <= 0) throw std::invalid_argument("darray: bad array size");
    switch (dists[d]) {
      case Distribution::None:
        if (psizes[d] != 1) {
          throw std::invalid_argument(
              "darray: DISTRIBUTE_NONE requires a process-grid extent of 1");
        }
        for (std::int64_t i = 0; i < sizes[d]; ++i) owned[d].push_back(i);
        break;
      case Distribution::Block: {
        const std::int64_t block =
            dargs[d] > 0 ? dargs[d]
                         : (sizes[d] + psizes[d] - 1) / psizes[d];
        const std::int64_t begin = coords[d] * block;
        const std::int64_t end = std::min(sizes[d], begin + block);
        for (std::int64_t i = begin; i < end; ++i) owned[d].push_back(i);
        break;
      }
      case Distribution::Cyclic: {
        const std::int64_t block = dargs[d] > 0 ? dargs[d] : 1;
        for (std::int64_t i = 0; i < sizes[d]; ++i) {
          if ((i / block) % psizes[d] == coords[d]) owned[d].push_back(i);
        }
        break;
      }
    }
  }
  // Row strides in elements (C order).
  std::vector<std::int64_t> stride(ndims, 1);
  for (std::size_t d = ndims - 1; d > 0; --d) {
    stride[d - 1] = stride[d] * sizes[d];
  }
  const std::int64_t elem_extent = element.extent();
  std::int64_t total_elems = 1;
  for (std::int64_t s : sizes) total_elems *= s;

  // Emit segments: iterate the owned outer indices; merge consecutive
  // owned indices of the innermost dimension into runs.
  std::vector<Segment> segments;
  std::vector<std::size_t> pick(ndims, 0);
  bool any_empty = false;
  for (const auto& dim : owned) {
    if (dim.empty()) any_empty = true;
  }
  const std::uint64_t elem_size = element.size();
  const bool dense_element =
      element.segments().size() == 1 && element.segments()[0].disp == 0 &&
      static_cast<std::int64_t>(elem_size) == elem_extent;
  while (!any_empty) {
    std::int64_t base = 0;
    for (std::size_t d = 0; d + 1 < ndims; ++d) {
      base += owned[d][pick[d]] * stride[d];
    }
    // Runs along the innermost dimension.
    const auto& inner = owned[ndims - 1];
    std::size_t i = 0;
    while (i < inner.size()) {
      std::size_t j = i + 1;
      while (j < inner.size() && inner[j] == inner[j - 1] + 1) ++j;
      const std::int64_t elem_offset = base + inner[i];
      const auto run = static_cast<std::uint64_t>(j - i);
      if (dense_element) {
        segments.push_back(
            Segment{elem_offset * elem_extent,
                    run * static_cast<std::uint64_t>(elem_extent)});
      } else {
        std::int64_t lb_unused = 0;
        std::int64_t ub_unused = 0;
        bool first = true;
        for (std::uint64_t k = 0; k < run; ++k) {
          place(segments, lb_unused, ub_unused, first, element,
                (elem_offset + static_cast<std::int64_t>(k)) * elem_extent);
        }
      }
      i = j;
    }
    if (ndims == 1) break;
    std::size_t d = ndims - 1;
    while (true) {
      if (d == 0) {
        any_empty = true;  // done
        break;
      }
      --d;
      if (++pick[d] < owned[d].size()) break;
      pick[d] = 0;
    }
  }
  return make(std::move(segments), 0, total_elems * elem_extent);
}

std::vector<Segment> Datatype::tiled_segments(std::uint64_t count) const {
  std::vector<Segment> result;
  result.reserve(segments().size() * count);
  const std::int64_t ext = extent();
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * ext;
    for (const Segment& seg : segments()) {
      result.push_back(Segment{seg.disp + shift, seg.length});
    }
  }
  coalesce(result);
  return result;
}

bool Datatype::monotone() const { return is_monotone(state_->segments); }

std::string Datatype::describe() const {
  std::ostringstream os;
  os << "Datatype{size=" << size() << ", extent=" << extent()
     << ", segments=" << segments().size();
  const std::size_t shown = std::min<std::size_t>(segments().size(), 4);
  for (std::size_t i = 0; i < shown; ++i) {
    os << (i == 0 ? ": " : ", ") << "[" << segments()[i].disp << "+"
       << segments()[i].length << ")";
  }
  if (segments().size() > shown) {
    os << ", ...";
  }
  os << "}";
  return os.str();
}

}  // namespace parcoll::dtype
