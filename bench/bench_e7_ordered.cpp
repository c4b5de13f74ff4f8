// E7o (protocol v2): the ordered mixed workload — predecessor/successor/
// range-count queries interleaved with the classic point mix, across every
// backend.
//
// Panels:
//   A: bulk run() in 4096-op chunks. Ordered kinds slice the batch into
//      point/ordered phases; the phase boundaries are where the ordered
//      surface costs, so skew in the mix is the interesting knob.
//   B: asynchronous submission — ONE client thread keeps a 512-op window
//      in flight through submit(op, ticket) and recycles fulfilled slots,
//      against the same thread issuing blocking per-op calls. The gap is
//      what the futures API buys: overlap without a thread per op.
//
//   ./bench_e7_ordered [--backend=...] [--workers=N] [--mix=S,I,E,P,Su,R]
//                      [--range-span=N] [--json=FILE]
//
// Default mix: 55% search / 15% insert / 10% erase / 10% predecessor /
// 5% successor / 5% range-count over a Zipf(0.99) key stream.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/async_map.hpp"
#include "driver/cli.hpp"
#include "util/workload.hpp"

namespace {

constexpr std::uint64_t kN = 1u << 14;
constexpr std::size_t kOps = 120000;
constexpr std::size_t kWindow = 512;

using IntDriver = pwss::driver::Driver<std::uint64_t, std::uint64_t>;
using IntOp = pwss::core::Op<std::uint64_t, std::uint64_t>;
using IntTicket = pwss::core::OpTicket<std::uint64_t>;

IntOp to_op(const pwss::util::KeyOp& k) {
  using pwss::util::OpKind;
  switch (k.kind) {
    case OpKind::kSearch: return IntOp::search(k.key);
    case OpKind::kInsert: return IntOp::insert(k.key, k.value);
    case OpKind::kErase: return IntOp::erase(k.key);
    case OpKind::kPredecessor: return IntOp::predecessor(k.key);
    case OpKind::kSuccessor: return IntOp::successor(k.key);
    case OpKind::kRangeCount: return IntOp::range_count(k.key, k.key2);
  }
  return IntOp::search(k.key);
}

std::vector<IntOp> make_ops(const pwss::util::OpMix& mix, double theta,
                            std::uint64_t seed) {
  const auto keys = pwss::util::zipf_keys(kN, theta, kOps, seed);
  const auto kops = pwss::util::apply_mix(keys, mix, seed * 3 + 1);
  std::vector<IntOp> ops;
  ops.reserve(kops.size());
  for (const auto& k : kops) ops.push_back(to_op(k));
  return ops;
}

/// Bulk path: chunked run() with a reused results buffer; returns Mops/s.
double bulk_mops(IntDriver& map, const std::vector<IntOp>& ops) {
  pwss::bench::WallTimer t;
  std::vector<IntOp> chunk;
  chunk.reserve(4096);
  std::vector<pwss::core::Result<std::uint64_t>> results;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    chunk.push_back(ops[i]);
    if (chunk.size() == 4096 || i + 1 == ops.size()) {
      map.run(chunk, results);
      chunk.clear();
    }
  }
  return static_cast<double>(ops.size()) / t.seconds() / 1e6;
}

/// One thread, blocking per-op calls; returns Mops/s.
double blocking_mops(IntDriver& map, const std::vector<IntOp>& ops) {
  pwss::bench::WallTimer t;
  for (const auto& op : ops) (void)map.step(op);
  map.quiesce();
  return static_cast<double>(ops.size()) / t.seconds() / 1e6;
}

/// One thread, kWindow operations kept in flight through the raw-ticket
/// submission API (slots recycled on completion); returns Mops/s.
double submit_window_mops(IntDriver& map, const std::vector<IntOp>& ops) {
  pwss::bench::WallTimer t;
  std::vector<IntTicket> ring(kWindow);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    IntTicket& slot = ring[i % kWindow];
    if (i >= kWindow) {
      (void)slot.wait();  // recycle the oldest outstanding slot
      slot.reset();
    }
    map.submit(ops[i], &slot);
  }
  map.quiesce();
  return static_cast<double>(ops.size()) / t.seconds() / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  argc = pwss::bench::consume_json_flag(argc, argv, "e7o");
  auto cli = pwss::driver::parse<std::uint64_t, std::uint64_t>(
      argc, argv, {"m0", "m1", "m2", "avl"});
  if (cli.driver.workers == 0) cli.driver.workers = 4;
  if (!cli.mix_given) {
    cli.mix = {0.55, 0.15, 0.10, 0.10, 0.05, 0.05, cli.mix.range_span};
  }
  auto& json = pwss::bench::BenchJson::instance();

  std::vector<std::string> cols = {"theta"};
  for (const auto& b : cli.backends) cols.push_back(b);

  pwss::bench::print_header(
      "E7o-a: ordered mixed workload, bulk run() Mops/s (4096-op chunks)",
      cols);
  for (const double theta : {0.0, 0.99}) {
    const auto ops = make_ops(cli.mix, theta, 171);
    pwss::bench::print_cell(theta);
    for (const auto& name : cli.backends) {
      auto map = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(
          name, cli.driver);
      pwss::bench::prepopulate(*map, kN);
      const double m = bulk_mops(*map, ops);
      pwss::bench::print_cell(m);
      json.record("ordered_bulk", name, "ops_per_sec", m * 1e6,
                  {{"workers", cli.driver.workers},
                   {"batch", 4096},
                   {"theta_x100", theta * 100}});
    }
    pwss::bench::end_row();
  }

  pwss::bench::print_header(
      "E7o-b: 1 client, submit() window=512 vs blocking step(), Mops/s",
      {"mode", "backend", "Mops/s"});
  for (const auto& name : cli.backends) {
    const auto ops = make_ops(cli.mix, 0.99, 172);
    for (const bool windowed : {false, true}) {
      auto map = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(
          name, cli.driver);
      pwss::bench::prepopulate(*map, kN);
      const double m =
          windowed ? submit_window_mops(*map, ops) : blocking_mops(*map, ops);
      pwss::bench::print_cell(std::string(windowed ? "submit512" : "step"));
      pwss::bench::print_cell(name);
      pwss::bench::print_cell(m);
      pwss::bench::end_row();
      json.record(windowed ? "submit_window" : "blocking_step", name,
                  "ops_per_sec", m * 1e6,
                  {{"workers", cli.driver.workers},
                   {"window", windowed ? static_cast<double>(kWindow) : 1.0},
                   {"theta_x100", 99}});
    }
  }

  std::printf(
      "\nShape: the ordered mix pays one phase boundary per ordered cluster "
      "in bulk batches; the\nsubmission window overlaps per-op latency that "
      "blocking callers serialize.\n");
  return 0;
}
