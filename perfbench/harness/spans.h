// Host-time spans recorded by the benchmark around each public simulator
// call. Recording is off in untraced rounds: Spans::time() then only calls
// through, so end-to-end figures carry no span bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Phase : std::uint8_t { kSetup = 0, kTimed = 1 };

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a top-level span
  std::uint64_t op = 0;  // the op (request, round trip, restore) it serves
  Phase phase = Phase::kSetup;
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  void set_op(std::uint64_t op) { op_ = op; }
  void set_phase(Phase p) { phase_ = p; }

  // Runs f() inside a span named `name` (a string literal) and returns its
  // result. The span closes on exceptions too.
  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    if (!on_) return std::forward<F>(f)();
    Open open(*this, name);
    return std::forward<F>(f)();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

 private:
  class Open {
   public:
    Open(Spans& s, const char* name) : s_(s), index_(s.spans_.size()) {
      Span sp;
      sp.name = name;
      sp.parent = s.current_;
      sp.op = s.op_;
      sp.phase = s.phase_;
      sp.start_ns = s.now_ns();
      s.spans_.push_back(sp);
      s.current_ = static_cast<int>(index_);
    }
    ~Open() {
      s_.spans_[index_].end_ns = s_.now_ns();
      s_.current_ = s_.spans_[index_].parent;
    }
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

   private:
    Spans& s_;
    std::size_t index_;
  };

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
  std::uint64_t op_ = 0;
  Phase phase_ = Phase::kSetup;
};

}  // namespace perfbench
