#include "mpi/trace.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>
#include <vector>

#include "mpi/runtime.hpp"

namespace parcoll::mpi {

void Tracer::write_csv(std::ostream& os) const {
  os << "rank,category,begin,end\n";
  for (const obs::Span& span : store_.spans()) {
    if (span.kind != obs::SpanKind::Phase) continue;
    os << span.rank << ',' << to_string(span.cat) << ',' << span.begin << ','
       << span.end << '\n';
  }
}

std::string Tracer::gantt(int width, int max_ranks) const {
  double horizon = 0;
  int nranks = 0;
  for (const obs::Span& span : store_.spans()) {
    if (span.kind != obs::SpanKind::Phase) continue;
    horizon = std::max(horizon, span.end);
    nranks = std::max(nranks, span.rank + 1);
  }
  if (nranks == 0 || width <= 0) {
    return "(no trace events)\n";
  }
  const int rows = std::min(nranks, max_ranks);
  const double bin = horizon / width;

  // Per (row, bin): time per category; pick the dominant one.
  std::vector<std::array<double, kNumTimeCats>> cells(
      static_cast<std::size_t>(rows * width));
  for (const obs::Span& span : store_.spans()) {
    if (span.kind != obs::SpanKind::Phase || span.rank >= rows) continue;
    const int first = std::min(width - 1, static_cast<int>(span.begin / bin));
    const int last = std::min(width - 1, static_cast<int>(span.end / bin));
    for (int b = first; b <= last; ++b) {
      const double lo = std::max(span.begin, b * bin);
      const double hi = std::min(span.end, (b + 1) * bin);
      if (hi > lo) {
        cells[static_cast<std::size_t>(span.rank * width + b)]
             [static_cast<std::size_t>(span.cat)] += hi - lo;
      }
    }
  }

  static constexpr char kGlyph[kNumTimeCats] = {'c', 'p', 'S', 'I',
                                                'F', 'n', 'd', 'D', 'k'};
  std::ostringstream os;
  os << "time 0.." << horizon
     << "s  (c=compute p=p2p S=sync I=io F=faulted n=intra d=drain "
        "D=drain_wait k=integrity .=idle)\n";
  for (int r = 0; r < rows; ++r) {
    os << "r";
    os.width(4);
    os << std::left << r << "|";
    for (int b = 0; b < width; ++b) {
      const auto& cell = cells[static_cast<std::size_t>(r * width + b)];
      double best = 0;
      int best_cat = -1;
      for (std::size_t c = 0; c < kNumTimeCats; ++c) {
        if (cell[c] > best) {
          best = cell[c];
          best_cat = static_cast<int>(c);
        }
      }
      os << (best_cat < 0 ? '.' : kGlyph[best_cat]);
    }
    os << "|\n";
  }
  if (nranks > rows) {
    os << "(+" << nranks - rows << " more ranks)\n";
  }
  return os.str();
}

SpanGuard::SpanGuard(Rank& self, obs::SpanKind kind, const char* name,
                     std::int64_t group, std::int64_t cycle) {
  Tracer* tracer = self.world().tracer();
  if (tracer == nullptr) {
    return;
  }
  tracer_ = tracer;
  rank_ = &self;
  id_ = tracer->spans().open(static_cast<std::uint64_t>(self.pid()),
                             self.rank(), kind, name, self.now(), group,
                             cycle);
}

SpanGuard::~SpanGuard() {
  if (tracer_ != nullptr) {
    tracer_->spans().close(static_cast<std::uint64_t>(rank_->pid()), id_,
                           rank_->now());
  }
}

}  // namespace parcoll::mpi
