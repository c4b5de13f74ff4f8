// The batch-cut boundary shared by both implicit-batching front ends
// (AsyncMap over M1, and M2's interface): ops submitted straight to the
// map, with no Driver admission screen in front, reach the cut's
// terminal-status screen, which completes a cancelled op kCancelled and an
// expired one kTimedOut without executing either. (Both front ends' per-op
// calls are checked against the oracle by the harness in property_test.)
#include <gtest/gtest.h>

#include <cstdint>

#include "core/async_map.hpp"
#include "core/m1_map.hpp"
#include "core/m2_map.hpp"
#include "sched/scheduler.hpp"

namespace pwss {
namespace {

using Key = std::uint64_t;
using Op = core::Op<Key, Key>;
using Ticket = core::OpTicket<Key, Key>;
using core::ResultStatus;

/// Submits a pre-cancelled insert of key 1, an insert of key 2 whose
/// deadline has already passed, and a live insert of key 3, then waits.
template <typename Map>
void submit_screened_and_live(Map& map) {
  Ticket cancelled;
  Ticket expired;
  Ticket live;
  cancelled.cancel();
  map.submit(Op::insert(1, 10), &cancelled);
  map.submit(Op::insert(2, 20).with_deadline(1), &expired);
  map.submit(Op::insert(3, 30), &live);
  EXPECT_EQ(cancelled.wait().status, ResultStatus::kCancelled);
  EXPECT_EQ(expired.wait().status, ResultStatus::kTimedOut);
  EXPECT_EQ(live.wait().status, ResultStatus::kInserted);
  map.quiesce();
}

TEST(FrontEndCutScreen, AsyncMapOverM1) {
  sched::Scheduler scheduler(2);
  core::AsyncMap<Key, Key, core::M1Map<Key, Key>> amap(
      core::M1Map<Key, Key>(&scheduler), scheduler);
  submit_screened_and_live(amap);
  EXPECT_EQ(amap.in_flight(), 0u);
  EXPECT_EQ(amap.map().size(), 1u) << "only the live insert ran";
  EXPECT_EQ(amap.map().validate(), "");
  EXPECT_EQ(amap.search(1), std::nullopt);
  EXPECT_EQ(amap.search(2), std::nullopt);
  EXPECT_EQ(amap.search(3), 30u);
}

TEST(FrontEndCutScreen, M2Interface) {
  sched::Scheduler scheduler(2);
  core::M2Map<Key, Key> m2(scheduler);
  submit_screened_and_live(m2);
  EXPECT_EQ(m2.size(), 1u) << "only the live insert ran";
  EXPECT_EQ(m2.validate(), "");
  EXPECT_EQ(m2.search(1), std::nullopt);
  EXPECT_EQ(m2.search(2), std::nullopt);
  EXPECT_EQ(m2.search(3), 30u);
}

}  // namespace
}  // namespace pwss
