#include "scada/util/combinatorics.hpp"

#include <limits>

namespace scada::util {

std::uint64_t n_choose_k(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    // result = result * factor / i, with saturation on overflow.
    if (result > std::numeric_limits<std::uint64_t>::max() / factor) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * factor / i;
  }
  return result;
}

KSubsetIterator::KSubsetIterator(std::size_t n, std::size_t k)
    : n_(n), idx_(k), valid_(k <= n) {
  for (std::size_t i = 0; i < k; ++i) idx_[i] = i;
}

void KSubsetIterator::advance() noexcept {
  if (!valid_) return;
  const std::size_t k = idx_.size();
  if (k == 0) {  // the single empty subset has no successor
    valid_ = false;
    return;
  }
  // Find the rightmost index that can still move right.
  std::size_t i = k;
  while (i > 0) {
    --i;
    if (idx_[i] != i + n_ - k) {
      ++idx_[i];
      for (std::size_t j = i + 1; j < k; ++j) idx_[j] = idx_[j - 1] + 1;
      return;
    }
  }
  valid_ = false;
}

bool for_each_subset_up_to(std::size_t n, std::size_t max_size,
                           const std::function<bool(const std::vector<std::size_t>&)>& fn) {
  for (std::size_t k = 0; k <= max_size && k <= n; ++k) {
    for (KSubsetIterator it(n, k); it.valid(); it.advance()) {
      if (!fn(it.subset())) return false;
    }
  }
  return true;
}

}  // namespace scada::util
