// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around each call into
// a layer's public function: a name, a start and end on the host steady
// clock (seconds since the recorder was created), and the index of the
// enclosing span (-1 at the root). Nothing is written until the run ends.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
};

class SpanRecorder {
 public:
  /// RAII span: opened by SpanRecorder::open, closed on destruction. A
  /// scope opened on a null recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name) : recorder_(recorder) {
      if (recorder_ != nullptr) index_ = recorder_->begin(std::move(name));
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->end(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int begin(std::string name) {
    spans_.push_back(Span{std::move(name), now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_s = now();
    open_ = span.parent;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Open a span on `recorder` (may be null) for the rest of the scope.
inline SpanRecorder::Scope span(SpanRecorder* recorder, std::string name) {
  return SpanRecorder::Scope(recorder, std::move(name));
}

}  // namespace perfbench
