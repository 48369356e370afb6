// perfbench: runs one MAGE workload for a wall-clock budget and prints its
// metrics as one JSON line.
//
//   perfbench --workload storm|wan|mobile --seed N --seconds S --workers W
//             [--trace-out FILE] [--ledger]
//
// (--workload mobile-lpc reproduces a known program defect; see NOTES.md.)
//
// A run first drains a reference episode at 1 worker and a warm-up episode
// at W workers, then repeats timed episodes at W workers until S seconds of
// episodes have passed.  Every episode of the run must reproduce the
// reference episode's ledger exactly (counts, per-node delivery digests,
// simulated-time metrics); any difference, lost or duplicated execution,
// FIFO violation or failed call makes the run incorrect and the exit code 1.
//
// --ledger runs a single episode at W workers and prints its ledger only;
// ledger_test.py compares those across runs and worker counts.
//
// Built twice: `perfbench` (untraced; end-to-end metrics) and
// `perfbench_traced` (spans + allocation counting; per-layer metrics).  The
// traced build writes the first timed episode's spans to --trace-out as
// Chrome trace-event JSON.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "rmi/envelope.hpp"
#include "serial/buffer.hpp"
#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * static_cast<double>(v[hi] - v[lo]);
}

double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

void reset_wire_counters() {
  mage::rmi::Envelope::reset_header_counters();
  mage::serial::Buffer::reset_copy_counters();
}

void record_wire_counters(Ledger& lg) {
  auto count = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  lg.counts["bench.fast_path_headers"] =
      count(mage::rmi::Envelope::fast_path_headers());
  lg.counts["bench.list_path_headers"] =
      count(mage::rmi::Envelope::list_path_headers());
  lg.counts["bench.deep_copies"] = count(mage::serial::Buffer::deep_copy_count());
  lg.counts["bench.deep_copy_bytes"] =
      count(mage::serial::Buffer::deep_copy_bytes());
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int workers = 1;
  std::string trace_out;
  bool ledger = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload storm|wan|mobile|mobile-lpc --seed N "
               "--seconds S --workers W [--trace-out FILE] [--ledger]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--workers") {
      o.workers = std::stoi(value());
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--ledger") {
      o.ledger = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workers < 1) usage("--workers must be at least 1");
  return o;
}

EpisodeFn workload_fn(const std::string& name) {
  if (name == "storm") return run_storm;
  if (name == "wan") return run_wan;
  if (name == "mobile") return run_mobile;
  if (name == "mobile-lpc") return run_mobile_lpc;
  usage("unknown workload '" + name + "'");
}

// --- minimal JSON writer -------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Object {
 public:
  Object& put(const std::string& key, const std::string& raw_json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + raw_json;
    return *this;
  }
  Object& num(const std::string& key, double v) { return put(key, number(v)); }
  Object& str(const std::string& key, const std::string& v) {
    return put(key, quote(v));
  }
  [[nodiscard]] std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + quote(items[i]);
  }
  return out + "]";
}

std::string ledger_json(const Ledger& lg) {
  Object counts;
  for (const auto& [k, v] : lg.counts) counts.num(k, static_cast<double>(v));
  Object sim;
  for (const auto& [k, v] : lg.sim) sim.num(k, v);
  std::vector<std::string> digests;
  for (std::uint64_t d : lg.digests) digests.push_back(std::to_string(d));
  return Object()
      .put("counts", counts.json())
      .put("sim", sim.json())
      .put("digests", string_list(digests))
      .json();
}

// First difference between two ledgers, for the error message.
std::string ledger_diff(const Ledger& a, const Ledger& b) {
  for (const auto& [k, v] : a.counts) {
    const auto it = b.counts.find(k);
    const std::int64_t w = it == b.counts.end() ? 0 : it->second;
    if (v != w) {
      return k + " " + std::to_string(v) + " vs " + std::to_string(w);
    }
  }
  for (const auto& [k, v] : b.counts) {
    if (!a.counts.contains(k)) return k + " missing from the reference";
  }
  for (const auto& [k, v] : a.sim) {
    const auto it = b.sim.find(k);
    if (it == b.sim.end() || it->second != v) return "sim " + k + " differs";
  }
  if (a.digests != b.digests) return "delivery digests differ";
  return "no difference";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// [min, q1, median, q3, max] of `v` as a JSON list.
std::string quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::string out = "[";
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    out += (q == 0.0 ? "" : ",") + number(v[i]);
  }
  return out + "]";
}

// Per-layer metrics a ledger determines (identical for every episode).
void count_metrics(const Ledger& lg, Object& out) {
  auto c = [&](const char* key) -> double {
    const auto it = lg.counts.find(key);
    return it == lg.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double calls = c("bench.calls");
  out.num("sim.windows", c("bench.windows"));
  out.num("sim.predicate_checks", c("sim.predicate_checks"));
  out.num("sim.wakeups", c("sim.wakeups"));
  out.num("net.msgs_per_call", ratio(c("net.messages_sent"), calls));
  out.num("net.bytes_per_call", ratio(c("net.bytes_sent"), calls));
  out.num("net.cross_shard_call_share", ratio(c("bench.cross_shard_calls"), calls));
  out.num("net.dropped", c("net.messages_dropped"));
  const double frames = c("rmi.batches_sent") + c("rmi.batch_singletons");
  out.num("rmi.invokes_per_frame",
          frames == 0 ? 1.0
                      : ratio(c("rmi.batched_invokes") + c("rmi.batch_singletons"),
                              frames));
  out.num("rmi.useful_send_ratio",
          ratio(c("rmi.calls"), c("rmi.calls") + c("rmi.retransmissions")));
  out.num("rmi.retransmissions", c("rmi.retransmissions"));
  out.num("rmi.duplicates_suppressed", c("rmi.duplicates_suppressed"));
  out.num("rmi.reply_cache_evictions", c("rmi.reply_cache_evictions"));
  out.num("rmi.evicted_reexecutions", c("rmi.evicted_reexecutions"));
  out.num("rmi.fast_path_share",
          ratio(c("bench.fast_path_headers"),
                c("bench.fast_path_headers") + c("bench.list_path_headers")));
  out.num("serial.deep_copy_bytes_per_call", ratio(c("bench.deep_copy_bytes"), calls));
  out.num("rts.redirects_per_invoke",
          ratio(c("rts.async_redirects"), c("rts.async_invokes")));
  out.num("rts.relocates", c("rts.async_relocates"));
  out.num("rts.stale_hints_rejected", c("rts.stale_hints_rejected"));
  out.num("rts.unfenced_walks", c("rts.unfenced_walks"));
  out.num("rts.migrations", c("rts.migrations"));
  const auto sim = [&](const char* key) {
    const auto it = lg.sim.find(key);
    return it == lg.sim.end() ? 0.0 : it->second;
  };
  out.num("rts.move_sim_us_p50", sim("move_p50_us"));
  out.num("core.bind_sim_us_p50", sim("bind_p50_us"));
}

// Per-layer metrics measured in wall time by the traced build: the median
// over the run's timed episodes of each episode's value.
void span_metrics(const std::vector<Episode>& eps,
                  const std::vector<trace::Summary>& summaries, Object& out) {
  auto per_episode = [&](auto&& fn) {
    std::vector<double> v;
    for (std::size_t i = 0; i < eps.size(); ++i) v.push_back(fn(i));
    return median(std::move(v));
  };
  auto span_pct = [&](const char* name, double p, double scale) {
    return per_episode([&](std::size_t i) {
      const auto it = summaries[i].durations.find(name);
      if (it == summaries[i].durations.end()) return 0.0;
      auto d = it->second;
      return percentile(d, p) / scale;
    });
  };
  auto gap_pct = [&](double p) {
    return per_episode([&](std::size_t i) {
      auto g = eps[i].round_gaps_ns;
      return percentile(g, p) / 1000.0;
    });
  };
  out.num("sim.round_wall_us_p50", gap_pct(0.50));
  out.num("sim.round_wall_us_p99", gap_pct(0.99));
  out.num("rmi.call_issue_ns_p50", span_pct("rmi.call", 0.50, 1));
  out.num("rmi.call_issue_ns_p99", span_pct("rmi.call", 0.99, 1));
  out.num("rts.invoke_issue_ns_p50", span_pct("rts.invoke", 0.50, 1));
  out.num("core.bind_wall_us_p50", span_pct("core.bind", 0.50, 1000));
  out.num("app.handler_ns_p50", span_pct("app.handler", 0.50, 1));
  out.num("common.allocs_per_send", per_episode([&](std::size_t i) {
            const auto it = eps[i].ledger.counts.find("net.messages_sent");
            return ratio(static_cast<double>(eps[i].allocations),
                         it == eps[i].ledger.counts.end()
                             ? 0.0
                             : static_cast<double>(it->second));
          }));
  for (const char* layer : {"sim", "rmi", "rts", "core", "app"}) {
    out.num(std::string("trace.self_ns_per_call.") + layer,
            per_episode([&](std::size_t i) {
              const auto it = summaries[i].self_ns.find(layer);
              const double self =
                  it == summaries[i].self_ns.end() ? 0.0
                                                   : static_cast<double>(it->second);
              return ratio(self, static_cast<double>(eps[i].completed));
            }));
  }
}

int run(const Options& o) {
  const EpisodeFn episode = workload_fn(o.workload);

  if (o.ledger) {
    const Episode ep = episode(o.seed, o.workers);
    std::cout << Object()
                     .str("workload", o.workload)
                     .num("seed", static_cast<double>(o.seed))
                     .num("workers", o.workers)
                     .put("ledger", ledger_json(ep.ledger))
                     .put("errors", string_list(ep.errors))
                     .json()
              << std::endl;
    return ep.errors.empty() ? 0 : 1;
  }

  std::vector<std::string> errors;
  auto check = [&](const Episode& ep, const Ledger* reference,
                   const char* which) {
    for (const auto& e : ep.errors) errors.push_back(std::string(which) + ": " + e);
    if (reference != nullptr && ep.ledger != *reference) {
      errors.push_back(std::string(which) + ": ledger differs from the " +
                       "1-worker reference: " + ledger_diff(*reference, ep.ledger));
    }
  };

  const Episode reference = episode(o.seed, 1);
  check(reference, nullptr, "reference episode");
  // Peak memory through the 1-worker episode: the workload's footprint.
  // Later multi-worker episodes add per-thread allocator arenas whose size
  // depends on timing (58-83 MiB over ten runs of `mobile`).
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  check(episode(o.seed, o.workers), &reference.ledger, "warm-up episode");

  std::vector<Episode> eps;
  std::vector<trace::Summary> summaries;
  const auto timed_start = std::chrono::steady_clock::now();
  do {
    eps.push_back(episode(o.seed, o.workers));
    check(eps.back(), &reference.ledger, "timed episode");
    if constexpr (trace::kEnabled) {
      summaries.push_back(trace::recorder().summarize());
      if (eps.size() == 1 && !o.trace_out.empty() &&
          !trace::recorder().write_chrome_json(o.trace_out, 100'000)) {
        errors.push_back("cannot write " + o.trace_out);
      }
    }
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         timed_start)
               .count() < o.seconds);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double cpu = 0;
  double wall = 0;
  std::vector<double> rates;
  std::vector<double> cpu_rates;
  std::vector<double> setups;
  for (const Episode& ep : eps) {
    attempted += ep.attempted;
    failed += ep.failed;
    cpu += ep.cpu_s;
    wall += ep.run_s;
    rates.push_back(static_cast<double>(ep.completed) / ep.run_s);
    cpu_rates.push_back(static_cast<double>(ep.completed) / ep.cpu_s);
    setups.push_back(ep.setup_s);
  }
  const Ledger& lg = reference.ledger;
  const auto sim = [&](const char* key) {
    const auto it = lg.sim.find(key);
    return it == lg.sim.end() ? 0.0 : it->second;
  };
  if (sim("samples") <= 1000) {
    errors.push_back("only " + number(sim("samples")) +
                     " latency samples per episode (need more than 1000)");
  }

  Object e2e;
  e2e.num("calls_per_s", median(rates))
      .num("calls_per_cpu_s", median(cpu_rates))
      .num("sim_call_p50_us", sim("call_p50_us"))
      .num("sim_call_p99_us", sim("call_p99_us"))
      .num("sim_makespan_ms", sim("makespan_us") / 1000.0)
      .num("success_ratio", 1.0 - ratio(static_cast<double>(failed),
                                        static_cast<double>(attempted)))
      .num("setup_s", median(setups))
      .num("peak_rss_mb", peak_rss_mb);

  Object layer;
  count_metrics(lg, layer);
  layer.num("sim.cpu_util", ratio(cpu, wall));
  if constexpr (trace::kEnabled) span_metrics(eps, summaries, layer);

  Object record;
  record.str("workload", o.workload)
      .num("seed", static_cast<double>(o.seed))
      .num("workers", o.workers)
      .num("hardware_threads", std::thread::hardware_concurrency())
      .str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .put("traced", trace::kEnabled ? "true" : "false")
      .num("episodes", static_cast<double>(eps.size()))
      .num("calls_per_episode", static_cast<double>(eps.front().completed))
      .put("episode_calls_per_s", quartiles(rates))
      .put("episode_calls_per_cpu_s", quartiles(cpu_rates))
      .num("latency_samples_per_episode", sim("samples"));

  for (const auto& e : errors) std::cerr << "perfbench: FAIL " << e << "\n";

  std::cout << Object()
                   .put("record", record.json())
                   .put("correct", errors.empty() ? "true" : "false")
                   .put("errors", string_list(errors))
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .put("end_to_end", e2e.json())
                   .put("per_layer", layer.json())
                   .put("ledger", ledger_json(lg))
                   .json()
            << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
