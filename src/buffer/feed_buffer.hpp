#pragma once
// Feed buffer (Section 6.1): a queue of *bunches*, each of size `bunch_cap`
// (= p^2) except possibly the last. An input batch is cut so that its first
// piece tops up the last bunch and the rest append as fresh bunches — O(1)
// work per element and O(1) per batch beyond that, matching the paper's
// bunch structure (a set with O(1) batch-add and O(log b)-span conversion).
//
// Single-consumer: only the data structure's interface (which is guarded by
// its activation gate) touches the feed buffer, so no internal locking.

#include <bit>
#include <cstddef>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

#include "util/validate.hpp"

namespace pwss::buffer {

/// The cut rule (Section 6.1): a cut batch takes ceil(log2(n) / p) bunches
/// of a map holding n keys, at least one. M1 and M2 both cut by it.
/// Requires p >= 1.
inline std::size_t cut_bunches(std::size_t n, unsigned p) {
  // ceil(log2 n), taken as 1 below n = 2 so that every cut is non-empty.
  const std::size_t log2n =
      n < 2 ? 1 : static_cast<std::size_t>(std::bit_width(n - 1));
  return (log2n + p - 1) / p;
}

template <typename T>
class FeedBuffer {
 public:
  explicit FeedBuffer(std::size_t bunch_cap) : bunch_cap_(bunch_cap ? bunch_cap : 1) {}

  bool empty() const noexcept { return bunches_.empty(); }
  std::size_t size() const noexcept { return total_; }
  std::size_t bunch_count() const noexcept { return bunches_.size(); }

  /// Cuts `input` into the last bunch + fresh bunches (Section 6.1's "cut
  /// and store" step).
  void append(std::vector<T> input) {
    total_ += input.size();
    std::size_t offset = 0;
    if (!bunches_.empty() && bunches_.back().size() < bunch_cap_) {
      const std::size_t room = bunch_cap_ - bunches_.back().size();
      const std::size_t take = std::min(room, input.size());
      auto& last = bunches_.back();
      last.insert(last.end(), std::make_move_iterator(input.begin()),
                  std::make_move_iterator(input.begin() + static_cast<std::ptrdiff_t>(take)));
      offset = take;
    }
    while (offset < input.size()) {
      const std::size_t take = std::min(bunch_cap_, input.size() - offset);
      bunches_.emplace_back(
          std::make_move_iterator(input.begin() + static_cast<std::ptrdiff_t>(offset)),
          std::make_move_iterator(input.begin() + static_cast<std::ptrdiff_t>(offset + take)));
      offset += take;
    }
  }

  /// Removes up to `n` bunches from the front and concatenates them into
  /// one cut batch (both M1 and M2 take cut_bunches(n, p) of them).
  std::vector<T> take_bunches(std::size_t n) {
    std::vector<T> out;
    for (std::size_t i = 0; i < n && !bunches_.empty(); ++i) {
      auto& front = bunches_.front();
      total_ -= front.size();
      if (out.empty()) {
        out = std::move(front);
      } else {
        out.insert(out.end(), std::make_move_iterator(front.begin()),
                   std::make_move_iterator(front.end()));
      }
      bunches_.pop_front();
    }
    return out;
  }

  /// Deep bunch-structure check (single-consumer context only, like every
  /// other member): every bunch non-empty and within capacity, every
  /// bunch except the last exactly full (appends top up the tail before
  /// opening a fresh bunch), and total_ equal to the sum of bunch sizes.
  /// Empty string = OK.
  std::string validate() const {
    util::Validator v("feed_buffer: ");
    std::size_t sum = 0;
    for (std::size_t i = 0; i < bunches_.size(); ++i) {
      const std::size_t sz = bunches_[i].size();
      sum += sz;
      if (!v.require(sz != 0, "bunch ", i, " of ", bunches_.size(),
                     " is empty")) {
        break;
      }
      if (!v.require(sz <= bunch_cap_, "bunch ", i, " holds ", sz,
                     " items, above the bunch capacity ", bunch_cap_)) {
        break;
      }
      if (!v.require(i + 1 == bunches_.size() || sz == bunch_cap_, "bunch ", i,
                     " of ", bunches_.size(), " holds ", sz,
                     " items but only the last bunch may be partial (cap ",
                     bunch_cap_, ")")) {
        break;
      }
    }
    v.require(sum == total_, "size accounting broken: bunches hold ", sum,
              " items but total_=", total_);
    return std::move(v).take();
  }

 private:
  std::size_t bunch_cap_;
  std::deque<std::vector<T>> bunches_;
  std::size_t total_ = 0;
};

}  // namespace pwss::buffer
