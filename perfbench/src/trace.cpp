#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

#if PERFBENCH_TRACED
// Replaces the global operator new for this binary only: the traced build
// counts allocations, the untraced build keeps the ordinary allocator.
#include "common/alloc_counter.hpp"
#endif

namespace perfbench::trace {
namespace {

constexpr int kLaneShift = 40;

std::uint64_t make_id(std::size_t lane, std::size_t index) {
  return (static_cast<std::uint64_t>(lane + 1) << kLaneShift) |
         static_cast<std::uint64_t>(index + 1);
}

std::string layer_of(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

// Total length of the union of `intervals`, each clipped to [lo, hi].
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = -1;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

Recorder& recorder() {
  static Recorder r;
  return r;
}

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint64_t allocations() {
#if PERFBENCH_TRACED
  return mage::common::alloc_count();
#else
  return 0;
#endif
}

void Recorder::reset(std::size_t lanes, std::size_t driver_lane) {
  if (lanes_.size() < lanes) lanes_.resize(lanes);
  for (auto& lane : lanes_) {
    lane.spans.clear();
    lane.open.clear();
    lane.growths = 0;
  }
  driver_lane_ = driver_lane;
  root_ = 0;
}

std::size_t Recorder::open(std::size_t lane_index, const char* name,
                           std::uint64_t req) {
  Lane& lane = lanes_[lane_index];
  if (lane.spans.size() == lane.spans.capacity()) ++lane.growths;
  if (lane.open.size() == lane.open.capacity()) ++lane.growths;
  const std::size_t index = lane.spans.size();
  const std::uint64_t parent =
      lane.open.empty() ? root_ : lane.spans[lane.open.back()].id;
  lane.spans.push_back(
      Span{name, now_ns(), 0, make_id(lane_index, index), parent, req});
  lane.open.push_back(index);
  return index;
}

void Recorder::close(std::size_t lane_index, std::size_t index) {
  Lane& lane = lanes_[lane_index];
  lane.spans[index].end_ns = now_ns();
  lane.open.pop_back();
}

std::uint64_t Recorder::own_allocations() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane.growths;
  return total;
}

Summary Recorder::summarize() const {
  Summary s;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& lane : lanes_) {
    for (const Span& span : lane.spans) {
      s.durations[span.name].push_back(span.end_ns - span.start_ns);
      if (span.parent != 0) {
        children[span.parent].emplace_back(span.start_ns, span.end_ns);
      }
    }
  }
  for (const auto& lane : lanes_) {
    for (const Span& span : lane.spans) {
      std::int64_t self = span.end_ns - span.start_ns;
      const auto it = children.find(span.id);
      if (it != children.end()) {
        self -= covered(it->second, span.start_ns, span.end_ns);
      }
      s.self_ns[layer_of(span.name)] += self;
    }
  }
  return s;
}

bool Recorder::write_chrome_json(const std::string& path,
                                 std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  // The driver lane first, then every shard lane with an equal share of
  // the limit, so each lane's first spans are in the file.
  std::vector<std::size_t> order{driver_lane_};
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    if (l != driver_lane_) order.push_back(l);
  }
  const std::size_t per_lane = std::max<std::size_t>(1, limit / order.size());
  const char* sep = "\n";
  for (const std::size_t l : order) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s%zu\"}}",
                 sep, l, l == driver_lane_ ? "driver" : "shard", l);
    sep = ",\n";
    const auto& spans = lanes_[l].spans;
    for (std::size_t i = 0; i < spans.size() && i < per_lane; ++i) {
      const Span& span = spans[i];
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                   span.name, layer_of(span.name).c_str(), l,
                   static_cast<double>(span.start_ns) / 1000.0,
                   static_cast<double>(span.end_ns - span.start_ns) / 1000.0,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.req));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
