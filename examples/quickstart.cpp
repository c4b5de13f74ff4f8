// Quickstart: using the library through the driver layer.
//
// Every map — the paper's M0/M1/M2 and the baselines — satisfies the same
// MapBackend concept and is reachable by name through the BackendRegistry.
// A Driver owns the scheduler, wires the right front end, and gives you:
//
//   * blocking search/insert/upsert/erase plus the ordered queries
//     (predecessor/successor/range_count), safe from any thread;
//   * an asynchronous submit() API — futures, completion callbacks, or
//     caller-owned tickets — so one thread overlaps many operations;
//   * a bulk run(batch) path with per-key program order preserved
//     (ordered kinds see exactly the point ops submitted before them);
//   * depth_of(): the working-set property made visible.
//
// Build & run:  ./quickstart [--backend=NAME]   (default: m2)

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/future.hpp"
#include "driver/cli.hpp"

int main(int argc, char** argv) {
  const auto cli =
      pwss::driver::parse<std::uint64_t, std::uint64_t>(argc, argv, {"m2"});
  const std::string& chosen = cli.backends.front();

  // ---- 1. The registry works for any key/value types -------------------
  // A string-keyed phone book on the sequential working-set map:
  auto phone_book = pwss::driver::make_driver<std::string, int>("m0");
  phone_book->insert("alice", 1111);
  phone_book->insert("bob", 2222);
  phone_book->insert("carol", 3333);
  if (auto v = phone_book->search("bob")) {
    std::printf("m0: bob -> %d (map size %zu)\n", *v, phone_book->size());
  }
  // Repeated accesses are cheap: "bob" migrates to the front segment.
  for (int i = 0; i < 3; ++i) phone_book->search("bob");
  std::printf("m0: bob sits at depth %zu after repeated access\n",
              *phone_book->depth_of("bob"));

  // ---- 2. Bulk batches through the backend chosen by --backend ----------
  auto map = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(
      chosen, cli.driver);
  using Op = pwss::core::Op<std::uint64_t, std::uint64_t>;
  std::vector<Op> batch;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    batch.push_back(Op::insert(i, i * i));
  }
  batch.push_back(Op::search(64));
  batch.push_back(Op::erase(99));
  batch.push_back(Op::search(99));  // same batch: sees the erase

  const auto results = map->run(batch);
  std::printf("%s: search(64) -> %llu; search(99) after erase found=%d\n",
              chosen.c_str(),
              static_cast<unsigned long long>(*results[10000].value),
              static_cast<int>(results[10002].success()));
  std::printf("%s: %zu items\n", chosen.c_str(), map->size());

  // ---- 3. Ordered queries: every map is ordered, and the API shows it --
  {
    const auto pred = map->predecessor(64);   // greatest key < 64
    const auto succ = map->successor(64);     // least key > 64
    const auto in_range = map->range_count(0, 127);
    std::printf("%s: pred(64)=%llu succ(64)=%llu |[0,127]|=%llu\n",
                chosen.c_str(),
                static_cast<unsigned long long>(pred->first),
                static_cast<unsigned long long>(succ->first),
                static_cast<unsigned long long>(in_range));
  }

  // ---- 4. Asynchronous submission: overlap ops from ONE thread ----------
  // submit() never blocks; collect results through futures (or pass a
  // completion callback, or a caller-owned OpTicket for zero allocation).
  {
    std::vector<pwss::core::Future<std::uint64_t>> futures;
    for (std::uint64_t i = 0; i < 512; ++i) {
      futures.push_back(map->submit(Op::insert(200000 + i, i)));
    }
    futures.push_back(map->submit(Op::search(200000)));  // rides the same wave
    std::uint64_t fresh = 0;
    for (auto& f : futures) fresh += f.get().success() ? 1 : 0;
    std::printf("%s: 513 ops in flight from one thread, %llu succeeded\n",
                chosen.c_str(), static_cast<unsigned long long>(fresh));
  }

  // ---- 5. Blocking calls from many threads ------------------------------
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(t) * 100000 + i;
        map->insert(key, key);
        map->search(key);
      }
    });
  }
  for (auto& th : clients) th.join();
  map->quiesce();
  std::printf("%s: size after 4 concurrent clients = %zu (invariants %s)\n",
              chosen.c_str(), map->size(),
              map->validate().empty() ? "ok" : "BROKEN");

  // ---- 6. Sharding: any backend name works with a sharded: prefix -------
  // --shards instances behind one shared scheduler; point ops route by key
  // hash, bulk batches scatter/gather per shard.
  auto sharded = pwss::driver::make_driver<std::uint64_t, std::uint64_t>(
      "sharded:m1", cli.driver);
  sharded->run(batch);  // the same bulk batch as section 2
  std::printf("sharded:m1: %zu items across shards (invariants %s)\n",
              sharded->size(),
              sharded->validate().empty() ? "ok" : "BROKEN");
  return 0;
}
