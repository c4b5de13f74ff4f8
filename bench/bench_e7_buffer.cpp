// E7 (Theorem 26 / Figure 4): the parallel buffer adds O(p + b) work and
// O(log p + log b) span per batch — i.e. amortized O(1) per operation once
// batches exceed ~p, and flush latency grows only logarithmically.
//
// Method: p submitter threads push b total items; measure ns/submit and
// flush time across b. Shape: ns/submit roughly flat in b and p; flush
// cost per item flat (the O(p) term visible only at tiny b).
//
// Panel E7b measures the same ingest through a full backend stack
// (default: m2) — concurrent blocking inserts via the driver — so the raw
// buffer cost can be read against the end-to-end submission path it feeds.
//
//   ./bench_e7_buffer [--backend=NAME[,NAME...]] [--workers=N]

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "buffer/parallel_buffer.hpp"
#include "driver/cli.hpp"

int main(int argc, char** argv) {
  const auto cli = pwss::driver::parse<std::uint64_t, std::uint64_t>(
      argc, argv, {"m2"});

  pwss::bench::print_header(
      "E7: parallel buffer cost",
      {"threads", "batch b", "ns/submit", "flush us", "flush ns/item"});

  // One flush target for every row, sized for the largest b, as a
  // consumer's reused queue is: the flush column times the swap and the
  // move, not the target's growth.
  std::vector<std::uint64_t> out;
  out.reserve(262144);
  for (const unsigned p : {1u, 4u, 8u}) {
    for (const std::size_t b : {64u, 1024u, 16384u, 262144u}) {
      pwss::buffer::ParallelBuffer<std::uint64_t> buf(p);
      std::atomic<std::uint64_t> submit_ns_total{0};
      std::vector<std::thread> threads;
      const std::size_t per = b / p;
      for (unsigned t = 0; t < p; ++t) {
        threads.emplace_back([&, t] {
          pwss::bench::WallTimer wt;
          for (std::size_t i = 0; i < per; ++i) {
            (void)buf.submit(t * per + i);
          }
          submit_ns_total.fetch_add(static_cast<std::uint64_t>(wt.ns()));
        });
      }
      for (auto& th : threads) th.join();
      out.clear();
      pwss::bench::WallTimer ft;
      buf.flush(out);
      const double flush_us = ft.ns() / 1e3;

      pwss::bench::print_cell(std::to_string(p));
      pwss::bench::print_cell(std::to_string(b));
      pwss::bench::print_cell(static_cast<double>(submit_ns_total.load()) /
                              static_cast<double>(out.size()));
      pwss::bench::print_cell(flush_us);
      pwss::bench::print_cell(ft.ns() / static_cast<double>(out.size()));
      pwss::bench::end_row();
    }
  }

  {
    std::vector<std::string> cols = {"threads"};
    for (const auto& b : cli.backends) cols.push_back(b + " ns/insert");
    pwss::bench::print_header(
        "E7b: end-to-end concurrent insert cost through the driver", cols);
    constexpr std::size_t kPerThread = 20000;
    for (const unsigned p : {1u, 4u, 8u}) {
      pwss::bench::print_cell(std::to_string(p));
      for (const auto& name : cli.backends) {
        auto map = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(
            name, cli.driver);
        std::vector<std::thread> threads;
        pwss::bench::WallTimer wt;
        for (unsigned t = 0; t < p; ++t) {
          threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
              map->insert(static_cast<std::uint64_t>(t) * kPerThread + i, i);
            }
          });
        }
        for (auto& th : threads) th.join();
        map->quiesce();
        pwss::bench::print_cell(wt.ns() /
                                static_cast<double>(p * kPerThread));
      }
      pwss::bench::end_row();
    }
  }

  std::printf(
      "\nShape: ns/submit ~ flat across b and p (O(1) amortized submit); "
      "flush ns/item ~ flat once b >> p (O(p + b) flush); E7b adds the "
      "structure pass on top.\n");
  return 0;
}
