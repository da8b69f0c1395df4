#include "sfc/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace bonsai::sfc {
namespace {

constexpr int kDigitBits = 8;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kPasses = (3 * kMaxLevel + kDigitBits - 1) / kDigitBits;

struct Item {
  Key key;
  std::uint32_t index;
};

}  // namespace

std::vector<std::uint32_t> sort_order(std::span<const Key> keys,
                                      std::span<const std::uint64_t> ids) {
  const std::size_t n = keys.size();
  BNS_CHECK(ids.size() == n);
  BNS_CHECK(n <= std::numeric_limits<std::uint32_t>::max());

  // Load (key, index) pairs and histogram every pass's digit in the same
  // sweep: a stable scatter keeps each digit's count.
  std::vector<Item> items(n), scratch(n);
  std::array<std::array<std::uint32_t, kBuckets>, kPasses> counts{};
  const auto digit = [](Key k, int pass) {
    return static_cast<std::size_t>(k >> (pass * kDigitBits)) & (kBuckets - 1);
  };
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = {keys[i], static_cast<std::uint32_t>(i)};
    for (int pass = 0; pass < kPasses; ++pass) ++counts[pass][digit(keys[i], pass)];
  }

  for (int pass = 0; pass < kPasses; ++pass) {
    auto& next = counts[pass];
    // A digit shared by every key leaves the order as it is.
    if (std::find(next.begin(), next.end(), n) != next.end()) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : next) offset += std::exchange(c, offset);
    for (const Item& item : items) scratch[next[digit(item.key, pass)]++] = item;
    items.swap(scratch);
  }

  // Equal keys sit in their input order; order each run of them by id.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = items[i].index;
  for (std::size_t begin = 0; begin < n;) {
    std::size_t end = begin + 1;
    while (end < n && items[end].key == items[begin].key) ++end;
    if (end - begin > 1)
      std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                       order.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::uint32_t a, std::uint32_t b) { return ids[a] < ids[b]; });
    begin = end;
  }
  return order;
}

}  // namespace bonsai::sfc
