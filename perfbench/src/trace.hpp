// Span recorder for the traced build of the benchmark.
//
// The benchmark's own code opens a span around each call it makes into a
// MAGE layer (sim run_until, rmi Transport::call, rts invoke/move, core
// bind) and around its own handlers and completions.  A span carries its
// name, start, end, the span that was open when it started (its parent)
// and a request id shared by every span of one call.
//
// Spans live in memory, one lane per simulation shard (per federation on
// `mobile`) plus one for the driver thread.  A lane is written only by the
// thread currently running its shard, so recording takes no lock; the
// driver reads the lanes after run_until returns.  Nesting inside a lane
// is tracked with a per-lane stack; a span opened on an empty worker lane
// is parented to the root span (the driver's run_until), which is what
// caused the worker to run.
//
// In the untraced build (PERFBENCH_TRACED == 0) every entry point
// compiles to nothing, so end-to-end numbers carry no tracing cost.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench::trace {

inline constexpr bool kEnabled = PERFBENCH_TRACED != 0;

struct Span {
  const char* name = nullptr;  // string literal: "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent
  std::uint64_t req = 0;     // shared by the spans of one call; 0: none
};

// What one episode's spans say about each layer.
struct Summary {
  // Span durations (ns) by span name.
  std::map<std::string, std::vector<std::int64_t>> durations;
  // Self time (ns) by layer: a span's duration minus the union of its
  // children's intervals, summed over the layer's spans.
  std::map<std::string, std::int64_t> self_ns;
};

class Recorder {
 public:
  // Empties every lane (keeping capacity) for a new episode.
  void reset(std::size_t lanes, std::size_t driver_lane);

  // Opens a span on `lane`; returns its index for close().
  std::size_t open(std::size_t lane, const char* name, std::uint64_t req);
  void close(std::size_t lane, std::size_t index);
  void set_req(std::size_t lane, std::size_t index, std::uint64_t req) {
    lanes_[lane].spans[index].req = req;
  }

  // The span worker-lane spans fall back to as their parent.
  void set_root(std::size_t lane, std::size_t index) {
    root_ = lanes_[lane].spans[index].id;
  }

  // Vector growths made by recording itself: the traced build subtracts
  // them from the allocation count.
  [[nodiscard]] std::uint64_t own_allocations() const;

  [[nodiscard]] Summary summarize() const;

  // Writes the recorded spans as Chrome trace-event JSON (complete "X"
  // events, one thread per lane), at most `limit` of them.  Returns false
  // if the file could not be written.
  bool write_chrome_json(const std::string& path, std::size_t limit) const;

 private:
  struct Lane {
    std::vector<Span> spans;
    std::vector<std::size_t> open;  // stack of indices into spans
    std::uint64_t growths = 0;
  };

  std::vector<Lane> lanes_;
  std::size_t driver_lane_ = 0;
  std::uint64_t root_ = 0;
};

Recorder& recorder();

// Steady-clock nanoseconds since the process started tracing.
std::int64_t now_ns();

// Heap allocations made so far by the whole process.  Counted only in the
// traced build, which links common/alloc_counter.hpp; 0 otherwise.
std::uint64_t allocations();

// RAII span.  A no-op in the untraced build.
class Scope {
 public:
  Scope(std::size_t lane, const char* name, std::uint64_t req = 0) {
    if constexpr (kEnabled) {
      lane_ = lane;
      index_ = recorder().open(lane, name, req);
    }
  }
  ~Scope() {
    if constexpr (kEnabled) recorder().close(lane_, index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_req(std::uint64_t req) {
    if constexpr (kEnabled) recorder().set_req(lane_, index_, req);
  }
  void make_root() {
    if constexpr (kEnabled) recorder().set_root(lane_, index_);
  }

 private:
  std::size_t lane_ = 0;
  std::size_t index_ = 0;
};

}  // namespace perfbench::trace
