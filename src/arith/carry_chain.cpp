#include "arith/carry_chain.hpp"

#include <algorithm>
#include <stdexcept>

namespace vlcsa::arith {

std::vector<int> carry_chain_lengths(const ApInt& a, const ApInt& b) {
  const PropagateGenerate pg(a, b);
  const int n = a.width();
  std::vector<int> lengths;
  int i = 0;
  while (i < n) {
    if (pg.g.bit(i)) {
      int len = 1;
      int j = i + 1;
      while (j < n && pg.p.bit(j)) {
        ++len;
        ++j;
      }
      lengths.push_back(len);
      // The chain was absorbed at position j (kill or generate); a new
      // chain may start exactly there, so resume the scan at j.
      i = j;
    } else {
      ++i;
    }
  }
  return lengths;
}

int longest_carry_chain(const ApInt& a, const ApInt& b) {
  const auto lengths = carry_chain_lengths(a, b);
  return lengths.empty() ? 0 : *std::max_element(lengths.begin(), lengths.end());
}

CarryChainProfiler::CarryChainProfiler(int width, ChainMetric metric)
    : width_(width), metric_(metric), counts_(static_cast<std::size_t>(width) + 1, 0) {
  if (width < 1) throw std::invalid_argument("CarryChainProfiler width must be >= 1");
}

void CarryChainProfiler::record(const ApInt& a, const ApInt& b) {
  record_lengths(carry_chain_lengths(a, b));
}

void CarryChainProfiler::record_batch(const BitSlicedBatch& batch, std::uint64_t valid) {
  if (batch.width() != width_) {
    throw std::invalid_argument("CarryChainProfiler::record_batch: batch width mismatch");
  }
  if (valid > static_cast<std::uint64_t>(batch.lanes())) {
    throw std::invalid_argument("CarryChainProfiler::record_batch: more valid lanes than lanes");
  }
  std::vector<std::uint64_t> runs(static_cast<std::size_t>(width_));
  total_ += planeops::chain_histogram(batch.a(), batch.b(), width_, batch.lane_words(), valid,
                                      metric_ == ChainMetric::kLongestPerAdd, runs.data(),
                                      counts_.data());
  additions_ += valid;
}

void CarryChainProfiler::record_lengths(const std::vector<int>& lengths) {
  ++additions_;
  if (metric_ == ChainMetric::kAllChains) {
    for (const int len : lengths) {
      counts_[static_cast<std::size_t>(std::min(len, width_))] += 1;
      ++total_;
    }
  } else {
    const int longest =
        lengths.empty() ? 0 : *std::max_element(lengths.begin(), lengths.end());
    counts_[static_cast<std::size_t>(std::min(longest, width_))] += 1;
    ++total_;
  }
}

CarryChainProfiler& CarryChainProfiler::operator+=(const CarryChainProfiler& other) {
  if (other.width_ != width_ || other.metric_ != metric_) {
    throw std::invalid_argument("CarryChainProfiler merge: width/metric mismatch");
  }
  for (std::size_t l = 0; l < counts_.size(); ++l) counts_[l] += other.counts_[l];
  total_ += other.total_;
  additions_ += other.additions_;
  return *this;
}

double CarryChainProfiler::fraction(int length) const {
  if (total_ == 0 || length < 0 || length > width_) return 0.0;
  return static_cast<double>(counts_[static_cast<std::size_t>(length)]) /
         static_cast<double>(total_);
}

double CarryChainProfiler::fraction_at_least(int length) const {
  if (total_ == 0) return 0.0;
  std::uint64_t n = 0;
  for (int l = std::max(length, 0); l <= width_; ++l) {
    n += counts_[static_cast<std::size_t>(l)];
  }
  return static_cast<double>(n) / static_cast<double>(total_);
}

double CarryChainProfiler::mean_length() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (int l = 0; l <= width_; ++l) {
    acc += static_cast<double>(l) * static_cast<double>(counts_[static_cast<std::size_t>(l)]);
  }
  return acc / static_cast<double>(total_);
}

}  // namespace vlcsa::arith
