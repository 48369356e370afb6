// `storm` and `wan`: closed-loop echo meshes on sim::ShardedSim.
//
// Every directed link (src, dst) of the mesh runs a pipeline of `window`
// outstanding rmi::Transport::call()s; each completion issues the link's
// next call until its seeded quota is spent.  Request bodies are 8-byte
// sequence numbers.  The echo service checks per-link FIFO order, counts
// executions per (link, seq) and folds each delivery into its node's
// order digest; the completion callback counts completions per (link,
// seq) and records the call's simulated issue-to-completion latency.
//
// storm: 16 nodes, all-to-all, one node per shard (every link crosses
//        shards), batching with the flush quantum at the lookahead, the
//        adaptive reply cache from a 512-entry floor, 32 calls in flight
//        per link.
// wan:   64 nodes in 8 sites.  All-to-all chatter inside each site; the
//        site leaders call each other over 20 ms hops.  Affinity mapping
//        puts each site on one shard and the per-pair lookahead matrix
//        widens the windows to the WAN hop.  No batching, 8 in flight per
//        link.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/chain.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace mage;
using Clock = std::chrono::steady_clock;

constexpr common::SimDuration kWanHopUs = 20'000;

struct LinkSpec {
  int src = 0;
  int dst = 0;
  std::int64_t calls = 0;
  common::SimTime start_us = 0;  // when the link primes its window
};

// Seeded extra latency of one directed node pair, on top of the cost model.
struct Delay {
  int from = 0;
  int to = 0;
  common::SimDuration extra_us = 0;
};

struct MeshSpec {
  int nodes = 0;
  std::size_t shards = 0;
  std::vector<int> site;  // per node; empty: one flat LAN, identity mapping
  std::vector<LinkSpec> links;
  std::vector<Delay> delays;
  net::CostModel model;
  int window = 0;
  // Batching at the lookahead quantum plus the adaptive reply cache growing
  // from a 512-entry floor: the configuration a user runs for throughput.
  bool batched = false;
};

constexpr std::size_t kBatchedCacheFloor = 512;

// A fast LAN whose cross-node floor (500 us propagation + 50 us receive
// CPU) is the conservative lookahead; RMI CPU overheads are zero so each
// window holds many events per shard.  bench_storm's sharded model.
net::CostModel storm_model(common::SimDuration propagation_us) {
  net::CostModel m = net::CostModel::zero();
  m.propagation_us = propagation_us;
  m.per_message_cpu_us = 50;
  m.bytes_per_usec = 1250.0;
  m.connection_setup_us = 500;
  m.local_invoke_us = 1;
  return m;
}

MeshSpec storm_spec(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x53544F524DULL);
  MeshSpec spec;
  spec.nodes = 16;
  spec.shards = 16;
  spec.model = storm_model(rng.next_range(495, 505));
  spec.window = 32;
  spec.batched = true;
  for (int i = 0; i < spec.nodes; ++i) {
    for (int j = 0; j < spec.nodes; ++j) {
      if (i == j) continue;
      spec.links.push_back(LinkSpec{i, j, rng.next_range(400, 600),
                                    rng.next_range(0, 2'000)});
      spec.delays.push_back(Delay{i, j, rng.next_range(0, 100)});
    }
  }
  return spec;
}

MeshSpec wan_spec(std::uint64_t seed) {
  common::Rng rng(seed ^ 0x57414EULL);
  MeshSpec spec;
  spec.nodes = 64;
  constexpr int kSites = 8;
  constexpr int kPerSite = 8;
  spec.shards = kSites;
  spec.model = net::CostModel::wan_site();
  spec.window = 8;
  for (int i = 0; i < spec.nodes; ++i) spec.site.push_back(i / kPerSite);
  // LAN jitter inside a site; a 20 ms hop plus jitter between sites.
  for (int a = 0; a < spec.nodes; ++a) {
    for (int b = 0; b < spec.nodes; ++b) {
      if (a == b) continue;
      spec.delays.push_back(
          Delay{a, b,
                spec.site[a] == spec.site[b]
                    ? rng.next_range(0, 40)
                    : kWanHopUs + rng.next_range(0, 2'000)});
    }
  }
  for (int s = 0; s < kSites; ++s) {
    for (int i = 0; i < kPerSite; ++i) {
      for (int j = 0; j < kPerSite; ++j) {
        if (i == j) continue;
        spec.links.push_back(LinkSpec{s * kPerSite + i, s * kPerSite + j,
                                      rng.next_range(150, 250),
                                      rng.next_range(0, 2'000)});
      }
    }
  }
  for (int a = 0; a < kSites; ++a) {
    for (int b = 0; b < kSites; ++b) {
      if (a == b) continue;
      spec.links.push_back(LinkSpec{a * kPerSite, b * kPerSite,
                                    rng.next_range(75, 125),
                                    rng.next_range(0, 2'000)});
    }
  }
  return spec;
}

// Caller-side state of one link, written only by the source node's shard.
struct alignas(64) CallerSide {
  rmi::Transport* transport = nullptr;
  common::NodeId dst;
  common::VerbId verb;
  sim::Simulation* sim = nullptr;
  const std::vector<serial::Buffer>* bodies = nullptr;
  std::size_t lane = 0;
  std::uint64_t req_base = 0;
  std::int64_t calls = 0;
  std::int64_t next_seq = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  common::SimTime last_done_at = 0;
  std::vector<common::SimTime> issued;
  std::vector<std::int64_t> latency;
  std::vector<std::uint8_t> done;
};

// Callee-side state of one link, written only by the destination's shard.
struct alignas(64) CalleeSide {
  std::int64_t last_seq = -1;
  std::int64_t fifo_violations = 0;
  std::vector<std::uint8_t> executed;
};

struct alignas(64) NodeDigest {
  std::uint64_t value = kDigestSeed;
};

void launch(CallerSide& link);

void on_reply(CallerSide& link, std::int64_t seq, rmi::CallResult result) {
  trace::Scope span(link.lane, "app.completion", link.req_base + seq);
  if (result.ok) {
    ++link.completed;
    ++link.done[static_cast<std::size_t>(seq)];
    const common::SimTime now = link.sim->now();
    link.latency[static_cast<std::size_t>(seq)] =
        now - link.issued[static_cast<std::size_t>(seq)];
    link.last_done_at = std::max(link.last_done_at, now);
  } else {
    ++link.failed;
  }
  launch(link);
}

void launch(CallerSide& link) {
  if (link.next_seq >= link.calls) return;
  const std::int64_t seq = link.next_seq++;
  link.issued[static_cast<std::size_t>(seq)] = link.sim->now();
  trace::Scope span(link.lane, "rmi.call", link.req_base + seq);
  link.transport->call(
      link.dst, link.verb, (*link.bodies)[static_cast<std::size_t>(seq)],
      [&link, seq](rmi::CallResult r) { on_reply(link, seq, std::move(r)); });
}

std::vector<net::AffinityEdge> affinity_edges(const MeshSpec& spec) {
  std::vector<net::AffinityEdge> edges;
  for (const LinkSpec& l : spec.links) {
    edges.push_back({static_cast<std::size_t>(l.src),
                     static_cast<std::size_t>(l.dst),
                     static_cast<double>(l.calls)});
  }
  return edges;
}

Episode run_mesh(const MeshSpec& spec, std::uint64_t seed, int workers) {
  Episode ep;
  const auto setup_start = Clock::now();
  const std::size_t n = static_cast<std::size_t>(spec.nodes);

  // State the services and callbacks point into; declared before the
  // simulation so it outlives every queued action.
  std::int64_t max_calls = 0;
  for (const LinkSpec& l : spec.links) max_calls = std::max(max_calls, l.calls);
  std::vector<serial::Buffer> bodies;
  bodies.reserve(static_cast<std::size_t>(max_calls));
  for (std::int64_t s = 0; s < max_calls; ++s) {
    serial::Writer w(8);
    w.write_u64(static_cast<std::uint64_t>(s));
    bodies.push_back(w.take());
  }
  std::vector<CallerSide> callers(spec.links.size());
  std::vector<CalleeSide> callees(spec.links.size());
  std::vector<NodeDigest> digests(n);
  std::vector<int> link_of(n * n, -1);
  std::vector<std::size_t> lane_of(n);
  std::vector<int> index_of;

  const common::SimDuration lookahead =
      net::Network::min_link_latency(spec.model);
  sim::ShardedSim ssim(spec.shards, seed, lookahead);
  std::vector<std::size_t> mapping;
  if (!spec.site.empty()) {
    mapping = net::affinity_mapping(n, spec.shards, affinity_edges(spec));
  }
  net::Network net(ssim, spec.model, std::move(mapping));

  std::vector<common::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(net.add_node("n" + std::to_string(i)));
    if (index_of.size() <= ids.back().value()) {
      index_of.resize(ids.back().value() + 1, -1);
    }
    index_of[ids.back().value()] = static_cast<int>(i);
    lane_of[i] = net.shard_of(ids.back());
  }
  for (const Delay& d : spec.delays) {
    net.set_extra_latency(ids[static_cast<std::size_t>(d.from)],
                          ids[static_cast<std::size_t>(d.to)], d.extra_us);
  }
  // The WAN derives its per-pair lookahead matrix from the topology; the
  // storm keeps the uniform floor, which every jittered link exceeds.
  if (!spec.site.empty()) net.refresh_pair_lookaheads();

  std::vector<std::unique_ptr<rmi::Transport>> transports;
  for (std::size_t i = 0; i < n; ++i) {
    if (!spec.batched) {
      transports.push_back(std::make_unique<rmi::Transport>(net, ids[i]));
      continue;
    }
    transports.push_back(
        std::make_unique<rmi::Transport>(net, ids[i], kBatchedCacheFloor));
    rmi::BatchOptions batch;
    batch.enabled = true;
    batch.flush_quantum_us = lookahead;
    transports.back()->set_batching(batch);
    rmi::AdaptiveCacheOptions adaptive;
    adaptive.enabled = true;
    adaptive.floor = kBatchedCacheFloor;
    adaptive.ceiling = rmi::Transport::kReplyCacheCapacity;
    transports.back()->set_adaptive_reply_cache(adaptive);
  }

  const common::VerbId echo = common::intern_verb("perfbench.echo");
  std::int64_t total = 0;
  std::int64_t cross_shard = 0;
  for (std::size_t li = 0; li < spec.links.size(); ++li) {
    const LinkSpec& l = spec.links[li];
    link_of[static_cast<std::size_t>(l.src) * n +
            static_cast<std::size_t>(l.dst)] = static_cast<int>(li);
    CallerSide& c = callers[li];
    c.transport = transports[static_cast<std::size_t>(l.src)].get();
    c.dst = ids[static_cast<std::size_t>(l.dst)];
    c.verb = echo;
    c.sim = &net.node_sim(ids[static_cast<std::size_t>(l.src)]);
    c.bodies = &bodies;
    c.lane = lane_of[static_cast<std::size_t>(l.src)];
    c.req_base = static_cast<std::uint64_t>(li + 1) << 32;
    c.calls = l.calls;
    c.issued.assign(static_cast<std::size_t>(l.calls), 0);
    c.latency.assign(static_cast<std::size_t>(l.calls), 0);
    c.done.assign(static_cast<std::size_t>(l.calls), 0);
    callees[li].executed.assign(static_cast<std::size_t>(l.calls), 0);
    total += l.calls;
    if (lane_of[static_cast<std::size_t>(l.src)] !=
        lane_of[static_cast<std::size_t>(l.dst)]) {
      cross_shard += l.calls;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    transports[i]->register_service(
        echo, [&, i](common::NodeId caller, const serial::BufferChain& body,
                     rmi::Replier replier) {
          trace::Scope span(lane_of[i], "app.handler");
          serial::ChainReader r(body);
          const auto seq = static_cast<std::int64_t>(r.read_u64());
          const std::size_t src =
              static_cast<std::size_t>(index_of[caller.value()]);
          const int li = link_of[src * n + i];
          span.set_req((static_cast<std::uint64_t>(li + 1) << 32) +
                       static_cast<std::uint64_t>(seq));
          CalleeSide& c = callees[static_cast<std::size_t>(li)];
          if (seq <= c.last_seq) ++c.fifo_violations;
          c.last_seq = seq;
          ++c.executed[static_cast<std::size_t>(seq)];
          digests[i].value = fold_digest(digests[i].value, caller.value(),
                                         static_cast<std::uint64_t>(seq));
          replier.ok(body);
        });
  }

  for (std::size_t li = 0; li < spec.links.size(); ++li) {
    CallerSide* c = &callers[li];
    const int window = spec.window;
    c->sim->schedule_at(
        spec.links[li].start_us,
        [c, window] {
          for (int w = 0; w < window; ++w) launch(*c);
        },
        sim::Wake::No);
  }

  reset_wire_counters();
  ep.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();

  // --- timed region ---------------------------------------------------------
  trace::recorder().reset(spec.shards + 1, spec.shards);
  if constexpr (trace::kEnabled) ep.round_gaps_ns.reserve(1 << 16);
  const std::uint64_t allocs_before = trace::allocations();
  const double cpu_before = cpu_seconds();
  std::int64_t last_round_ns = trace::now_ns();
  const auto run_start = Clock::now();
  bool drained = false;
  {
    trace::Scope span(spec.shards, "sim.run_until");
    span.make_root();
    drained = ssim.run_until(
        [&] {
          if constexpr (trace::kEnabled) {
            const std::int64_t t = trace::now_ns();
            ep.round_gaps_ns.push_back(t - last_round_ns);
            last_round_ns = t;
          }
          std::int64_t finished = 0;
          for (const CallerSide& c : callers) finished += c.completed + c.failed;
          return finished == total;
        },
        workers);
  }
  ep.run_s = std::chrono::duration<double>(Clock::now() - run_start).count();
  ep.cpu_s = cpu_seconds() - cpu_before;
  ep.allocations = trace::allocations() - allocs_before -
                   trace::recorder().own_allocations();

  // --- outputs and checks ---------------------------------------------------
  std::vector<std::int64_t> latencies;
  latencies.reserve(static_cast<std::size_t>(total));
  common::SimTime makespan = 0;
  std::int64_t fifo_violations = 0;
  std::int64_t bad_exec = 0;
  std::int64_t bad_done = 0;
  for (std::size_t li = 0; li < callers.size(); ++li) {
    const CallerSide& c = callers[li];
    ep.attempted += c.next_seq;
    ep.completed += c.completed;
    ep.failed += c.failed;
    makespan = std::max(makespan, c.last_done_at);
    for (std::size_t s = 0; s < c.done.size(); ++s) {
      if (c.done[s] != 1) ++bad_done;
      if (callees[li].executed[s] != 1) ++bad_exec;
      if (c.done[s] == 1) latencies.push_back(c.latency[s]);
    }
    fifo_violations += callees[li].fifo_violations;
  }
  if (!drained || ep.completed != total) {
    ep.errors.push_back("drained with " + std::to_string(ep.completed) + "/" +
                        std::to_string(total) + " calls completed");
  }
  if (bad_exec != 0) {
    ep.errors.push_back(std::to_string(bad_exec) +
                        " requests not executed exactly once");
  }
  if (bad_done != 0) {
    ep.errors.push_back(std::to_string(bad_done) +
                        " requests not completed exactly once");
  }
  if (fifo_violations != 0) {
    ep.errors.push_back(std::to_string(fifo_violations) +
                        " per-link FIFO violations");
  }

  Ledger& lg = ep.ledger;
  for (std::size_t s = 0; s < ssim.shard_count(); ++s) {
    for (const auto& [key, value] : ssim.shard(s).stats().counters()) {
      lg.counts[key] += value;
    }
  }
  lg.counts["bench.calls"] = ep.completed;
  lg.counts["bench.failed"] = ep.failed;
  lg.counts["bench.cross_shard_calls"] = cross_shard;
  lg.counts["bench.windows"] = ssim.windows();
  lg.counts["bench.frontier_us"] = ssim.frontier();
  lg.counts["bench.fifo_violations"] = fifo_violations;
  record_wire_counters(lg);
  for (const NodeDigest& d : digests) lg.digests.push_back(d.value);
  lg.sim["samples"] = static_cast<double>(latencies.size());
  lg.sim["call_p50_us"] = percentile(latencies, 0.50);
  lg.sim["call_p99_us"] = percentile(latencies, 0.99);
  lg.sim["makespan_us"] = static_cast<double>(makespan);
  return ep;
}

}  // namespace

Episode run_storm(std::uint64_t seed, int workers) {
  return run_mesh(storm_spec(seed), seed, workers);
}

Episode run_wan(std::uint64_t seed, int workers) {
  return run_mesh(wan_spec(seed), seed, workers);
}

}  // namespace perfbench
