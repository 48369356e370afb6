// `mobile`: the paper's model on the single-queue driver engine.
//
// An episode drains kCells independent federations (cells), each a
// driver-engine sim::Simulation seeded from the episode seed, and pools
// their outputs: a mobile workload's latency tail comes from a few rare
// events per federation (a migration racing an invoke, a dropped message),
// so one federation's percentiles swing from seed to seed while pooled ones
// hold still.  The cells are built one after another on the calling thread
// (set-up), then run side by side on the run's workers, cell c on worker
// c mod W.  Cells share nothing, so the pooled outputs do not depend on W.
//
// A cell: eight namespaces, each a full rts::MageServer.  24 mobile Session
// components start on nodes 0 and 1.  Every node runs a generator that
// keeps a window of AsyncClient::invoke_raw future chains in flight
// against seeded, skewed session choices.  A closed-loop rebalancer on
// node 0 polls every node's load with hedged load_of probes and move()s
// one session from the hottest node to the coolest, waits for that move to
// finish, and polls again; so migrations (serialize, transfer, epoch fence,
// forward) race the invokes.  Node 7 additionally drives a closed loop of
// synchronous calls, with think time, through the MageClient stack: a CLE
// mobility attribute's bind() finds the session wherever it lives, and the
// handle invokes it.  That stack runs only on this engine, since call_sync
// is driver-only.  Node 7 is a client namespace: sessions move only among
// nodes 0-6 (see kHostNodes).  A seeded fault schedule of two loss bursts
// and one partition/heal races the invokes and probes, so transport
// retransmission and duplicate suppression run too; the rebalancer starts
// no move from kFaultLeadUs before a fault window until its end.
//
// Checks, once every call has returned and no move is in flight: every
// request executed exactly once (per-request counters), and no call
// failed; every session is hosted on exactly one node and its served count
// equals the completed invokes that targeted it; the network's wire-FIFO
// self-check sees no violation; no reply-cache eviction re-executes a
// request.
#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/attributes.hpp"
#include "net/cost_model.hpp"
#include "net/fault_schedule.hpp"
#include "net/network.hpp"
#include "rmi/channel.hpp"
#include "rts/async_client.hpp"
#include "rts/component.hpp"
#include "rts/future.hpp"
#include "rts/system.hpp"
#include "serial/buffer.hpp"
#include "serial/traits.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace mage;
using Clock = std::chrono::steady_clock;

constexpr int kCells = 16;
constexpr int kNodes = 8;
constexpr int kSessions = 24;
constexpr int kHotSessions = 4;
constexpr int kWindow = 4;
constexpr std::int64_t kInvokesPerNode = 800;
constexpr std::int64_t kSyncCalls = 40;
// Think time between synchronous calls spreads them over the cell's run.
constexpr common::SimDuration kSyncThinkUs = 6'000;
constexpr int kStateWords = 32;
constexpr common::SimDuration kWorkCostUs = 600;
constexpr common::SimDuration kLoadTickUs = 5'000;
constexpr common::SimDuration kRebalanceTickUs = 10'000;
// Sessions live on nodes 0..kHostNodes-1.  The synchronous caller on the
// last node hosts none, because MageClient's local fast path holds a
// registry reference across charge(), which runs the simulation: a
// migration that lands meanwhile makes the call run on a stale copy or on
// freed memory.  Workload "mobile-lpc" lets it host them and shows that
// defect (NOTES.md).
constexpr int kHostNodes = kNodes - 1;
// A move whose transfer frame is lost waits out the transport's 150 ms
// retransmission timeout in transit, longer than an invoke's chase budget
// lasts, so the rebalancer keeps its moves clear of the fault windows.
constexpr common::SimDuration kFaultLeadUs = 20'000;

// The running cell's request-execution counters and trace lane.  Session
// objects are built by the class world, so they find both here; a cell
// runs every event on the one thread that runs it.
thread_local std::vector<std::uint8_t>* t_executed = nullptr;
thread_local std::size_t t_lane = 0;

class Session : public rts::MageObject {
 public:
  std::string class_name() const override { return "Session"; }
  void serialize(serial::Writer& w) const override {
    w.write_i64(served_);
    w.write_u64(digest_);
    for (std::uint64_t v : state_) w.write_u64(v);
  }
  void deserialize(serial::Reader& r) override {
    served_ = r.read_i64();
    digest_ = r.read_u64();
    for (std::uint64_t& v : state_) v = r.read_u64();
  }

  std::int64_t work(std::int64_t req) {
    trace::Scope span(t_lane, "app.handler", static_cast<std::uint64_t>(req) + 1);
    const auto slot = static_cast<std::size_t>(req) % kStateWords;
    digest_ = fold_digest(digest_, static_cast<std::uint64_t>(req), state_[slot]);
    ++state_[slot];
    if (req >= 0 && static_cast<std::size_t>(req) < t_executed->size()) {
      ++(*t_executed)[static_cast<std::size_t>(req)];
    }
    return ++served_;
  }

  void seed_state(common::Rng& rng) {
    for (std::uint64_t& v : state_) v = rng.next();
  }
  [[nodiscard]] std::int64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::int64_t served_ = 0;
  std::uint64_t digest_ = kDigestSeed;
  std::array<std::uint64_t, kStateWords> state_{};
};

// modern_lan with a 220 us cross-node floor and cheap marshalling.
net::CostModel mobile_model() {
  net::CostModel m = net::CostModel::modern_lan();
  m.propagation_us = 200;
  m.per_message_cpu_us = 20;
  return m;
}

// Load probes are idempotent, so they may hedge and retry.
rmi::CallPolicy probe_policy() {
  rmi::CallPolicy policy;
  policy.attempt_timeout_us = 3'000;
  policy.attempt_transmissions = 8;
  policy.max_retries = 2;
  policy.backoff_base_us = 2'000;
  policy.backoff_multiplier = 2.0;
  policy.backoff_jitter = 0.25;
  policy.hedge_after_us = 550;
  return policy;
}

// Half the draws hit a small hot set, so the rebalancer always has a hot
// node to relieve.
int draw_session(common::Rng& rng, const std::vector<int>& hot) {
  if (rng.next_bool(0.5)) {
    return hot[static_cast<std::size_t>(rng.next_below(hot.size()))];
  }
  return static_cast<int>(rng.next_below(kSessions));
}

struct Generator {
  std::int64_t req_base = 0;
  std::vector<int> choice;  // session per invoke
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
};

// One federation.  The constructor is set-up, run() the timed closed
// loops, check() the output checks.  Scheduled actions and futures capture
// `this`, so a Cell never moves.
class Cell {
 public:
  Cell(std::uint64_t seed, int index, int host_nodes)
      : index_(index), host_nodes_(host_nodes),
        lane_(static_cast<std::size_t>(index)),
        rng_(seed ^ 0x4D4F42494C45ULL), sys_(mobile_model(), seed) {
    make_inputs();
    build_federation();
    schedule_background();
    if constexpr (trace::kEnabled) round_gaps_ns.reserve(1 << 16);
  }
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  void run();
  void check(Episode& ep);

  std::vector<std::int64_t> latencies;
  std::vector<std::int64_t> move_sim_us;
  std::vector<std::int64_t> bind_sim_us;
  std::vector<std::int64_t> round_gaps_ns;
  common::SimTime makespan = 0;

 private:
  void make_inputs();
  void build_federation();
  void schedule_background();
  void issue(std::size_t g);
  void complete(std::int64_t req, std::size_t s, common::SimTime issued_at);
  void load_tick();
  void rebalance();
  void sync_loop();
  [[nodiscard]] std::string where() const {
    return "cell " + std::to_string(index_) + ": ";
  }

  int index_;
  int host_nodes_;
  std::size_t lane_;
  common::Rng rng_;
  rts::MageSystem sys_;
  sim::Simulation& sim_ = sys_.simulation();

  // Inputs.
  std::vector<int> hot_;
  std::vector<Generator> gens_;
  std::int64_t async_total_ = 0;
  std::vector<int> sync_choice_;
  std::vector<common::NodeId> ids_;
  std::vector<std::string> names_;
  std::vector<std::pair<common::SimTime, common::SimTime>> fault_windows_;

  // Clients.
  std::vector<std::unique_ptr<rts::AsyncClient>> clients_;
  std::unique_ptr<rts::AsyncClient> prober_;
  std::unique_ptr<core::Cle> cle_;

  // Outputs.
  std::vector<std::uint8_t> executed_;
  std::vector<std::uint8_t> completed_req_;
  std::vector<std::int64_t> completed_for_;
  std::vector<std::int64_t> last_served_;
  std::int64_t sync_completed_ = 0;
  std::int64_t sync_failed_ = 0;
  std::int64_t moves_issued_ = 0;
  std::int64_t moves_failed_ = 0;
  bool moving_ = false;
  std::string first_error_;
  bool drained_ = false;
};

void Cell::make_inputs() {
  while (hot_.size() < kHotSessions) {
    const int s = static_cast<int>(rng_.next_below(kSessions));
    if (std::find(hot_.begin(), hot_.end(), s) == hot_.end()) hot_.push_back(s);
  }
  gens_.resize(kNodes);
  for (Generator& g : gens_) {
    g.req_base = async_total_;
    for (std::int64_t k = 0; k < kInvokesPerNode; ++k) {
      g.choice.push_back(draw_session(rng_, hot_));
    }
    async_total_ += kInvokesPerNode;
  }
  for (std::int64_t k = 0; k < kSyncCalls; ++k) {
    sync_choice_.push_back(draw_session(rng_, hot_));
  }
  const auto total = static_cast<std::size_t>(async_total_ + kSyncCalls);
  executed_.assign(total, 0);
  completed_req_.assign(total, 0);
  completed_for_.assign(kSessions, 0);
  last_served_.assign(kSessions, 0);
}

void Cell::build_federation() {
  rts::ClassBuilder<Session>(sys_.world(), "Session")
      .method("work", &Session::work, kWorkCostUs);
  for (int i = 0; i < kNodes; ++i) {
    ids_.push_back(sys_.add_node("n" + std::to_string(i)));
  }
  sys_.install_class_everywhere("Session");
  net::Network& net = sys_.network();
  for (common::NodeId a : ids_) {
    for (common::NodeId b : ids_) {
      if (a != b) net.set_extra_latency(a, b, rng_.next_range(0, 60));
    }
  }
  for (int s = 0; s < kSessions; ++s) {
    names_.push_back("sess" + std::to_string(s));
    rts::ComponentInfo info;
    info.name = names_.back();
    info.class_name = "Session";
    info.home = ids_[static_cast<std::size_t>(s % 2)];
    info.is_public = true;
    sys_.directory().announce(info);
    auto object = sys_.world().instantiate("Session");
    static_cast<Session&>(*object).seed_state(rng_);
    sys_.server(info.home).registry().bind(info.name, std::move(object));
  }
  sys_.warm_all();

  for (common::NodeId id : ids_) {
    clients_.push_back(std::make_unique<rts::AsyncClient>(sys_.server(id)));
  }
  prober_ = std::make_unique<rts::AsyncClient>(sys_.server(ids_[0]),
                                               probe_policy());
  cle_ = std::make_unique<core::Cle>(sys_.client(ids_[kNodes - 1]), names_[0]);

  net.set_fifo_checks(true);
  net::FaultSchedule faults;
  const auto a = static_cast<std::size_t>(rng_.next_below(kNodes));
  const auto b = (a + 1 + rng_.next_below(kNodes - 1)) % kNodes;
  const common::SimTime loss1 = rng_.next_range(10'000, 30'000);
  const common::SimTime cut = rng_.next_range(40'000, 80'000);
  const common::SimTime loss2 = rng_.next_range(100'000, 140'000);
  faults.loss_burst(loss1, 0.03, 8'000);
  faults.partition_for(cut, ids_[a], ids_[b], 15'000);
  faults.loss_burst(loss2, 0.03, 8'000);
  net.set_fault_schedule(std::move(faults));
  fault_windows_ = {{loss1, loss1 + 8'000}, {cut, cut + 15'000},
                    {loss2, loss2 + 8'000}};
}

void Cell::schedule_background() {
  sim_.schedule_at(0, [this] { load_tick(); }, sim::Wake::No);
  sim_.schedule_at(0, [this] { rebalance(); }, sim::Wake::No);
}

void Cell::complete(std::int64_t req, std::size_t s, common::SimTime issued_at) {
  ++completed_req_[static_cast<std::size_t>(req)];
  ++completed_for_[s];
  latencies.push_back(sim_.now() - issued_at);
  makespan = std::max(makespan, sim_.now());
}

// Issues generator g's next invoke: one future chain per in-flight call.
void Cell::issue(std::size_t g) {
  Generator& gen = gens_[g];
  if (gen.issued >= static_cast<std::int64_t>(gen.choice.size())) return;
  const std::int64_t k = gen.issued++;
  const auto s = static_cast<std::size_t>(gen.choice[static_cast<std::size_t>(k)]);
  const std::int64_t req = gen.req_base + k;
  const auto rid = static_cast<std::uint64_t>(req) + 1;
  serial::Writer w;
  serial::put(w, req);
  const common::SimTime issued_at = sim_.now();
  rts::MageFuture<serial::Buffer> reply;
  {
    trace::Scope span(lane_, "rts.invoke", rid);
    reply = clients_[g]->invoke_raw(names_[s], "work", w.take());
  }
  reply
      .then([this, g, s, req, rid, issued_at](serial::Buffer&) {
        trace::Scope span(lane_, "app.completion", rid);
        ++gens_[g].completed;
        complete(req, s, issued_at);
        issue(g);
      })
      .on_error([this, g](const std::string& error) {
        ++gens_[g].failed;
        if (first_error_.empty()) first_error_ = error;
        issue(g);
      });
}

// Publishes each node's load: executions its sessions served since the
// last tick.
void Cell::load_tick() {
  for (common::NodeId id : ids_) {
    rts::Registry& registry = sys_.server(id).registry();
    std::int64_t delta = 0;
    for (const auto& name : registry.local_names()) {
      const auto s = static_cast<std::size_t>(std::stoi(name.substr(4)));
      const auto served =
          static_cast<const Session&>(registry.local(name)).served();
      delta += served - last_served_[s];
      last_served_[s] = served;
    }
    sys_.network().set_load(id, static_cast<double>(delta));
  }
  sim_.schedule_after(kLoadTickUs, [this] { load_tick(); }, sim::Wake::No);
}

// Node 0 polls every load and moves one session from the hottest node to
// the coolest host node, then polls again kRebalanceTickUs after the round
// (and its move) has finished.
void Cell::rebalance() {
  auto again = [this] {
    sim_.schedule_after(kRebalanceTickUs, [this] { rebalance(); }, sim::Wake::No);
  };
  std::vector<rts::MageFuture<double>> probes;
  for (common::NodeId id : ids_) probes.push_back(prober_->load_of(id));
  rts::when_all(probes)
      .then([this, again](std::vector<double>& loads) {
        std::size_t hot_node = 0;
        std::size_t cool_node = 0;
        for (std::size_t j = 1; j < loads.size(); ++j) {
          if (loads[j] > loads[hot_node]) hot_node = j;
          if (j < static_cast<std::size_t>(host_nodes_) &&
              loads[j] < loads[cool_node]) {
            cool_node = j;
          }
        }
        const bool near_fault =
            std::any_of(fault_windows_.begin(), fault_windows_.end(),
                        [&](const auto& w) {
                          return sim_.now() + kFaultLeadUs >= w.first &&
                                 sim_.now() < w.second;
                        });
        rts::AsyncClient& mover = *clients_[0];
        const auto name =
            std::find_if(names_.begin(), names_.end(), [&](const auto& n) {
              return mover.believed_host(n) == ids_[hot_node];
            });
        if (hot_node == cool_node || loads[hot_node] <= 0 || near_fault ||
            name == names_.end()) {
          again();
          return;
        }
        ++moves_issued_;
        moving_ = true;
        const common::SimTime moved_at = sim_.now();
        rts::MageFuture<common::NodeId> moved;
        {
          trace::Scope span(lane_, "rts.move");
          moved = mover.move(*name, ids_[cool_node]);
        }
        moved
            .then([this, moved_at, again](common::NodeId&) {
              move_sim_us.push_back(sim_.now() - moved_at);
              moving_ = false;
              again();
            })
            .on_error([this, again](const std::string& error) {
              ++moves_failed_;
              if (first_error_.empty()) first_error_ = error;
              moving_ = false;
              again();
            });
      })
      .on_error([again](const std::string&) {
        // A probe round that lost a node is skipped; the next one polls
        // again.
        again();
      });
}

// Node 7's synchronous closed loop: bind through the CLE attribute, then
// invoke through the MageClient handle, then think.
void Cell::sync_loop() {
  const std::int64_t sync_base = async_total_;
  for (std::int64_t k = 0; k < kSyncCalls; ++k) {
    const auto s = static_cast<std::size_t>(sync_choice_[static_cast<std::size_t>(k)]);
    const std::int64_t req = sync_base + k;
    const auto rid = static_cast<std::uint64_t>(req) + 1;
    const common::SimTime issued_at = sim_.now();
    try {
      core::RemoteHandle handle;
      {
        trace::Scope span(lane_, "core.bind", rid);
        handle = cle_->bind(names_[s]);
      }
      bind_sim_us.push_back(sim_.now() - issued_at);
      {
        trace::Scope span(lane_, "rts.sync_invoke", rid);
        (void)handle.invoke<std::int64_t>("work", req);
      }
      ++sync_completed_;
      complete(req, s, issued_at);
    } catch (const std::exception& e) {
      ++sync_failed_;
      if (first_error_.empty()) first_error_ = e.what();
    }
    sim_.run_for(kSyncThinkUs);
  }
}

void Cell::run() {
  t_executed = &executed_;
  t_lane = lane_;
  // The cell's root span: the engine runs inside the synchronous calls and
  // think times as well as in the final drain.
  trace::Scope span(lane_, "sim.run_until");
  for (std::size_t g = 0; g < gens_.size(); ++g) {
    for (int w = 0; w < kWindow; ++w) issue(g);
  }
  sync_loop();
  std::int64_t last_round_ns = trace::now_ns();
  drained_ = sim_.run_until([&] {
    if constexpr (trace::kEnabled) {
      const std::int64_t t = trace::now_ns();
      round_gaps_ns.push_back(t - last_round_ns);
      last_round_ns = t;
    }
    // Drained once every call has returned and no move is in flight: a
    // move caught mid-transfer has its session bound at both ends.
    std::int64_t n = 0;
    for (const Generator& g : gens_) n += g.completed + g.failed;
    return n == async_total_ && !moving_;
  });
  t_executed = nullptr;
}

void Cell::check(Episode& ep) {
  std::int64_t completed = sync_completed_;
  std::int64_t failed = sync_failed_ + moves_failed_;
  std::int64_t issued = kSyncCalls + moves_issued_;
  for (const Generator& g : gens_) {
    issued += g.issued;
    completed += g.completed;
    failed += g.failed;
  }
  ep.attempted += issued;
  ep.completed += completed;
  ep.failed += failed;
  if (!drained_) ep.errors.push_back(where() + "the simulation drained early");
  std::int64_t bad_exec = 0;
  for (std::size_t r = 0; r < executed_.size(); ++r) {
    // A completed call ran exactly once; a failed one at most once.
    if (completed_req_[r] == 1 ? executed_[r] != 1 : executed_[r] > 1) {
      ++bad_exec;
    }
  }
  if (bad_exec != 0) {
    ep.errors.push_back(where() + std::to_string(bad_exec) +
                        " requests lost or executed twice");
  }
  Ledger& lg = ep.ledger;
  for (std::size_t s = 0; s < names_.size(); ++s) {
    const Session* found = nullptr;
    int hosts = 0;
    for (common::NodeId id : ids_) {
      rts::Registry& registry = sys_.server(id).registry();
      if (!registry.has_local(names_[s])) continue;
      ++hosts;
      found = &static_cast<const Session&>(registry.local(names_[s]));
    }
    if (hosts != 1) {
      ep.errors.push_back(where() + names_[s] + " is hosted on " +
                          std::to_string(hosts) + " nodes");
      lg.digests.push_back(0);
      continue;
    }
    if (found->served() != completed_for_[s]) {
      ep.errors.push_back(where() + names_[s] + " served " +
                          std::to_string(found->served()) + " invokes but " +
                          std::to_string(completed_for_[s]) + " completed");
    }
    lg.digests.push_back(found->digest());
  }
  const common::StatsRegistry& stats = sim_.stats();
  for (const auto& [key, value] : stats.counters()) lg.counts[key] += value;
  if (const auto fifo = stats.counter("net.fifo_violations"); fifo != 0) {
    ep.errors.push_back(where() + std::to_string(fifo) + " wire-FIFO violations");
  }
  if (const auto re = stats.counter("rmi.evicted_reexecutions"); re != 0) {
    ep.errors.push_back(where() + std::to_string(re) +
                        " eviction-caused re-executions");
  }
  lg.counts["bench.calls"] += completed;
  lg.counts["bench.failed"] += failed;
  lg.counts["bench.sync_calls"] += sync_completed_;
  lg.counts["bench.moves"] += moves_issued_;
  if (failed != 0) {
    ep.errors.push_back(where() + std::to_string(failed) +
                        " calls failed; first error: " + first_error_.substr(0, 200));
  }
}

Episode run_cells(std::uint64_t seed, int workers, int host_nodes) {
  Episode ep;
  const auto setup_start = Clock::now();
  std::vector<std::unique_ptr<Cell>> cells;
  for (int c = 0; c < kCells; ++c) {
    cells.push_back(std::make_unique<Cell>(
        seed * kCells + static_cast<std::uint64_t>(c), c, host_nodes));
  }
  reset_wire_counters();
  ep.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();

  // --- timed region: cell c runs on worker c mod W ---------------------------
  trace::recorder().reset(kCells + 1, kCells);
  const std::uint64_t allocs_before = trace::allocations();
  const double cpu_before = cpu_seconds();
  const auto run_start = Clock::now();
  const int threads = std::max(1, std::min(workers, kCells));
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&cells, t, threads] {
        for (std::size_t c = static_cast<std::size_t>(t); c < cells.size();
             c += static_cast<std::size_t>(threads)) {
          cells[c]->run();
        }
      });
    }
  }
  ep.run_s = std::chrono::duration<double>(Clock::now() - run_start).count();
  ep.cpu_s = cpu_seconds() - cpu_before;
  ep.allocations = trace::allocations() - allocs_before -
                   trace::recorder().own_allocations();

  // --- pooled outputs and checks, in cell order ---------------------------------
  std::vector<std::int64_t> latencies;
  std::vector<std::int64_t> moves;
  std::vector<std::int64_t> binds;
  std::vector<std::int64_t> makespans;
  for (const auto& cell : cells) {
    cell->check(ep);
    latencies.insert(latencies.end(), cell->latencies.begin(), cell->latencies.end());
    moves.insert(moves.end(), cell->move_sim_us.begin(), cell->move_sim_us.end());
    binds.insert(binds.end(), cell->bind_sim_us.begin(), cell->bind_sim_us.end());
    makespans.push_back(cell->makespan);
    ep.round_gaps_ns.insert(ep.round_gaps_ns.end(), cell->round_gaps_ns.begin(),
                            cell->round_gaps_ns.end());
  }
  Ledger& lg = ep.ledger;
  lg.counts["bench.cross_shard_calls"] = 0;
  lg.counts["bench.windows"] = 0;
  record_wire_counters(lg);
  lg.sim["samples"] = static_cast<double>(latencies.size());
  lg.sim["call_p50_us"] = percentile(latencies, 0.50);
  lg.sim["call_p99_us"] = percentile(latencies, 0.99);
  lg.sim["makespan_us"] = percentile(makespans, 0.50);
  lg.sim["move_p50_us"] = percentile(moves, 0.50);
  lg.sim["bind_p50_us"] = percentile(binds, 0.50);
  return ep;
}

}  // namespace

Episode run_mobile(std::uint64_t seed, int workers) {
  return run_cells(seed, workers, kHostNodes);
}

Episode run_mobile_lpc(std::uint64_t seed, int workers) {
  return run_cells(seed, workers, kNodes);
}

}  // namespace perfbench
