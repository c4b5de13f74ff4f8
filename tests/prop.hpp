#pragma once
// The differential property harness every layer of the stack is checked
// with, in three parts:
//
//   * generate(spec): a seeded stream of op batches. Batch sizes are drawn
//     log-uniformly from a range; keys are uniform, Zipf
//     (util::zipf_keys) or a sliding working set (util::working_set_keys);
//     the mix is point-only or adds the v2 ordered kinds.
//   * check(layer, stream): runs the stream through a fresh Layer. After
//     every op it compares all four result fields (status, value, matched
//     key, count) with the sequential oracle, testutil::reference_apply;
//     after every batch it checks size() and deep validate(). It returns
//     the first discrepancy, "" when there is none.
//   * shrink(layer, stream): ddmin (Zeller & Hildebrandt, TSE 2002) over a
//     failing stream, replaying every candidate on a fresh layer: whole
//     batches first, then single ops.
//
// expect_passes() ties them together. On a failure it shrinks and prints
// the layer, the stream's seed and the minimal batches as Op literals, to
// paste into a pinned regression test next to the layer table:
//
//   TEST(Pinned, SomeFailure) {
//     const prop::Stream kCase = {{Op::insert(3, 1), Op::erase(3)}};
//     for (const LayerCase& l : layers()) EXPECT_EQ(prop::check(l, kCase), "");
//   }
//
// Every layer must realize a legal linearization (Definition 8): per-key
// program order, results in submission order, ordered kinds observing
// exactly the point ops before them. Paths that keep several ops in
// flight (tickets, the wire) therefore send one phase at a time
// (core::for_each_phase) and wait for it before sending the next.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/future.hpp"
#include "core/ops.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace pwss::prop {

using K = std::uint64_t;
using V = std::uint64_t;
using Op = core::Op<K, V>;
using Result = core::Result<V, K>;
using Batch = std::vector<Op>;
using Stream = std::vector<Batch>;

// ---- the generator ----------------------------------------------------------

enum class KeyShape { kUniform, kZipf, kSliding };

struct StreamSpec {
  const char* name;
  std::uint64_t seed;
  std::size_t batches;
  std::size_t min_batch;  ///< batch sizes are log-uniform in [min, max]
  std::size_t max_batch;
  std::uint64_t universe;  ///< keys lie in [0, universe)
  KeyShape shape = KeyShape::kUniform;
  double theta = 0.99;   ///< KeyShape::kZipf's skew
  bool ordered = true;   ///< mix in predecessor, successor and range-count
};

/// The seeded stream `s` describes. Values are unique per op, so a result
/// carrying the wrong one of two writes to a key is caught.
inline Stream generate(const StreamSpec& s) {
  util::Xoshiro256 rng(s.seed);
  std::vector<std::size_t> sizes(s.batches);
  std::size_t total = 0;
  const double lo = std::log(static_cast<double>(s.min_batch));
  const double hi = std::log(static_cast<double>(s.max_batch) + 1.0);
  for (auto& n : sizes) {
    n = std::clamp(static_cast<std::size_t>(
                       std::exp(lo + (hi - lo) * rng.uniform01())),
                   s.min_batch, s.max_batch);
    total += n;
  }
  std::vector<K> keys;
  switch (s.shape) {
    case KeyShape::kUniform:
      keys = util::uniform_keys(s.universe, total, s.seed);
      break;
    case KeyShape::kZipf:
      keys = util::zipf_keys(s.universe, s.theta, total, s.seed);
      break;
    case KeyShape::kSliding:
      keys = util::working_set_keys(s.universe, 64, 0.05, total, s.seed);
      break;
  }
  Stream stream;
  std::size_t next = 0;
  for (const std::size_t n : sizes) {
    Batch& batch = stream.emplace_back();
    for (std::size_t i = 0; i < n; ++i, ++next) {
      const K key = keys[next];
      const V value = s.seed * 1'000'003 + next;
      switch (rng.bounded(s.ordered ? 11 : 8)) {
        case 0:
        case 1: batch.push_back(Op::insert(key, value)); break;
        case 2: batch.push_back(Op::upsert(key, value)); break;
        case 3:
        case 4: batch.push_back(Op::erase(key)); break;
        case 5:
        case 6:
        case 7: batch.push_back(Op::search(key)); break;
        case 8: batch.push_back(Op::predecessor(key)); break;
        case 9: batch.push_back(Op::successor(key)); break;
        default: {
          // One range in eight is inverted, which must count zero.
          const K span = rng.bounded(s.universe / 4 + 1);
          batch.push_back(rng.bounded(8) == 0 && key > span
                              ? Op::range_count(key, key - span)
                              : Op::range_count(key, key + span));
        }
      }
    }
  }
  return stream;
}

// ---- layers -----------------------------------------------------------------

/// One layer of the stack under test, built fresh for every run.
class Layer {
 public:
  virtual ~Layer() = default;
  /// Runs one batch; `out` receives one result per op, in submission
  /// order. A non-empty return is a failure the oracle cannot see (a
  /// restart that recovered the wrong counts, say).
  virtual std::string apply(const Batch& ops, std::vector<Result>& out) = 0;
  /// Item count and deep validation ("" = sound), quiescent.
  virtual std::size_t size() = 0;
  virtual std::string validate() = 0;
};

struct LayerCase {
  std::string name;
  std::function<std::unique_ptr<Layer>()> make;
  /// Runs the shorter stream set: the op-at-a-time paths, the wire and
  /// durable restarts, whose cost is per op or per batch.
  bool short_streams = false;
  /// Windowed submit: an op answered kOverloaded had no effect, so the
  /// oracle skips it.
  bool may_shed = false;
};

/// Calls `fn(first, last)` on each maximal point or ordered run of `ops`
/// in order; `fn` must complete its run before returning.
template <typename Fn>
void by_phase(const Batch& ops, Fn&& fn) {
  core::for_each_phase<K, V>(std::span<const Op>(ops), fn, fn);
}

/// Future submit from one thread, a whole phase outstanding at a time.
template <typename M>
void submit_phases(M& m, const Batch& ops, std::vector<Result>& out) {
  out.clear();
  std::vector<core::Future<V, K>> futures;
  by_phase(ops, [&](std::size_t lo, std::size_t hi) {
    futures.clear();
    for (std::size_t i = lo; i < hi; ++i) futures.push_back(m.submit(ops[i]));
    for (auto& f : futures) out.push_back(f.get());
  });
}

/// One op through the core::MapCalls surface, rebuilt as a Result: the
/// blocking call for its kind, a Future or a completion callback, in
/// rotation by `i` (only the blocking calls where `m` has no submit).
template <typename M>
Result call(M& m, const Op& op, std::size_t i) {
  using core::ResultStatus;
  if constexpr (requires(core::OpTicket<V, K>* t) { m.submit(op, t); }) {
    if (i % 3 == 1) return m.submit(op).get();
    if (i % 3 == 2) {
      core::OpTicket<V, K> done;
      m.submit(op, [&done](Result&& r) { done.fulfill(std::move(r)); });
      return done.wait();
    }
  }
  Result r;
  switch (op.type) {
    case core::OpType::kSearch:
      r.value = m.search(op.key);
      r.status = r.value ? ResultStatus::kFound : ResultStatus::kNotFound;
      break;
    case core::OpType::kInsert:
      r.status = m.insert(op.key, op.value) ? ResultStatus::kInserted
                                            : ResultStatus::kUpdated;
      break;
    case core::OpType::kUpsert:
      r.status = m.upsert(op.key, op.value);
      break;
    case core::OpType::kErase:
      r.value = m.erase(op.key);
      r.status = r.value ? ResultStatus::kErased : ResultStatus::kNotFound;
      break;
    case core::OpType::kPredecessor:
    case core::OpType::kSuccessor:
      if (const auto hit = op.type == core::OpType::kPredecessor
                               ? m.predecessor(op.key)
                               : m.successor(op.key)) {
        r.status = ResultStatus::kFound;
        r.matched_key = hit->first;
        r.value = hit->second;
      }
      break;
    case core::OpType::kRangeCount:
      r.status = ResultStatus::kFound;
      r.count = m.range_count(op.key, op.key2);
      break;
  }
  return r;
}

template <typename M>
void call_each(M& m, const Batch& ops, std::vector<Result>& out) {
  out.clear();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out.push_back(call(m, ops[i], i));
  }
}

// ---- the check --------------------------------------------------------------

/// `op` as the Op literal that rebuilds it.
inline std::string literal(const Op& op) {
  static constexpr const char* kName[] = {
      "search", "insert", "erase", "upsert", "predecessor", "successor",
      "range_count"};
  std::string s = std::string("Op::") + kName[static_cast<int>(op.type)] +
                  "(" + std::to_string(op.key);
  if (op.type == core::OpType::kInsert || op.type == core::OpType::kUpsert) {
    s += ", " + std::to_string(op.value);
  } else if (op.type == core::OpType::kRangeCount) {
    s += ", " + std::to_string(op.key2);
  }
  return s + ")";
}

inline std::string show(const Result& r) {
  static constexpr const char* kStatus[] = {
      "kNotFound", "kFound",    "kInserted",  "kUpdated", "kErased",
      "kOverloaded", "kTimedOut", "kCancelled", "kReadOnly"};
  auto opt = [](const std::optional<std::uint64_t>& x) {
    return x ? std::to_string(*x) : std::string("-");
  };
  return std::string("{") + kStatus[static_cast<int>(r.status)] + ", value " +
         opt(r.value) + ", matched " + opt(r.matched_key) + ", count " +
         std::to_string(r.count) + "}";
}

/// Runs `stream` through a fresh instance of `layer` against the oracle;
/// the first discrepancy, or "".
inline std::string check(const LayerCase& layer, const Stream& stream) try {
  std::unique_ptr<Layer> l = layer.make();
  std::map<K, V> ref;
  std::vector<Result> got;
  for (std::size_t b = 0; b < stream.size(); ++b) {
    const Batch& ops = stream[b];
    const std::string where = "batch " + std::to_string(b) + ": ";
    if (std::string err = l->apply(ops, got); !err.empty()) return where + err;
    if (got.size() != ops.size()) {
      return where + std::to_string(got.size()) + " results for " +
             std::to_string(ops.size()) + " ops";
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (layer.may_shed && got[i].status == core::ResultStatus::kOverloaded) {
        continue;
      }
      const Result want = testutil::reference_apply(ref, ops[i]);
      if (got[i].status != want.status || got[i].value != want.value ||
          got[i].matched_key != want.matched_key ||
          got[i].count != want.count) {
        return where + "op " + std::to_string(i) + " " + literal(ops[i]) +
               " got " + show(got[i]) + " want " + show(want);
      }
    }
    if (const std::size_t n = l->size(); n != ref.size()) {
      return where + "size " + std::to_string(n) + " want " +
             std::to_string(ref.size());
    }
    if (std::string err = l->validate(); !err.empty()) {
      return where + "validate: " + err;
    }
  }
  return "";
} catch (const std::exception& e) {
  return std::string("exception: ") + e.what();
}

// ---- the shrinker -----------------------------------------------------------

/// Replays the shrinker may spend on one failure.
inline constexpr std::size_t kShrinkReplays = 2000;

/// ddmin by complements: tries dropping each of n chunks of `items`,
/// keeps the first complement that still fails (n shrinks by one), and
/// otherwise doubles n, down to single items.
template <typename T, typename Fails>
std::vector<T> ddmin(std::vector<T> items, Fails&& fails,
                     std::size_t& replays) {
  std::size_t n = 2;
  while (items.size() >= 2 && replays > 0) {
    const std::size_t chunk = (items.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t lo = 0; lo < items.size() && replays > 0; lo += chunk) {
      std::vector<T> rest(items.begin(),
                          items.begin() + static_cast<std::ptrdiff_t>(lo));
      rest.insert(rest.end(),
                  items.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(items.size(), lo + chunk)),
                  items.end());
      --replays;
      if (fails(rest)) {
        items = std::move(rest);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= items.size()) break;
      n = std::min(items.size(), 2 * n);
    }
  }
  return items;
}

/// A failing stream reduced by ddmin: whole batches, then single ops
/// (each op keeps the batch it came from).
inline Stream shrink(const LayerCase& layer, Stream stream) {
  std::size_t replays = kShrinkReplays;
  auto fails = [&](const Stream& s) { return !check(layer, s).empty(); };
  stream = ddmin(std::move(stream), fails, replays);
  using Tagged = std::pair<std::size_t, Op>;
  std::vector<Tagged> ops;
  for (std::size_t b = 0; b < stream.size(); ++b) {
    for (const Op& op : stream[b]) ops.emplace_back(b, op);
  }
  auto regroup = [](const std::vector<Tagged>& tagged) {
    Stream s;
    for (std::size_t i = 0; i < tagged.size(); ++i) {
      if (i == 0 || tagged[i].first != tagged[i - 1].first) s.emplace_back();
      s.back().push_back(tagged[i].second);
    }
    return s;
  };
  ops = ddmin(
      std::move(ops),
      [&](const std::vector<Tagged>& t) { return fails(regroup(t)); },
      replays);
  return regroup(ops);
}

/// `stream` as a paste-ready prop::Stream initializer.
inline std::string literal(const Stream& stream) {
  std::string s = "const prop::Stream kCase = {\n";
  for (const Batch& batch : stream) {
    s += "    {";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      s += (i ? ", " : "") + literal(batch[i]);
    }
    s += "},\n";
  }
  return s + "};\n";
}

/// Generates `spec`'s stream and checks it on `layer`. The first failure
/// of a run is shrunk; the report names the layer, the stream and its
/// seed, the first and the minimal failure, how many of three replays of
/// the minimal case fail, and the minimal case itself.
inline void expect_passes(const LayerCase& layer, const StreamSpec& spec) {
  const Stream stream = generate(spec);
  const std::string err = check(layer, stream);
  if (err.empty()) return;
  const std::string head = "layer " + layer.name + ", stream " + spec.name +
                           " (seed " + std::to_string(spec.seed) + ")";
  // A shrink replays the layer up to kShrinkReplays times, and one broken
  // structure fails many cases: only the first failure of a run shrinks.
  static bool shrunk_one = false;
  if (std::exchange(shrunk_one, true)) {
    ADD_FAILURE() << head << "\n  first failure: " << err
                  << "\n  (not shrunk: an earlier case of this run was)";
    return;
  }
  const Stream minimal = shrink(layer, stream);
  int replays_failing = 0;
  std::string minimal_err;
  for (int r = 0; r < 3; ++r) {
    if (std::string e = check(layer, minimal); !e.empty()) {
      ++replays_failing;
      minimal_err = e;
    }
  }
  std::size_t ops = 0;
  for (const Batch& b : minimal) ops += b.size();
  ADD_FAILURE() << head << "\n  first failure: " << err
                << "\n  shrunk to " << ops << " ops in " << minimal.size()
                << " batches, failing " << replays_failing
                << " of 3 replays: " << minimal_err << "\n"
                << literal(minimal);
}

}  // namespace pwss::prop
