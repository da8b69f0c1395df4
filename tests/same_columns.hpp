// Bitwise comparison of whole particle sets, column by column, for the tests
// that hold a fast path to "changes nothing" or "independent of the thread
// count".
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "tree/particle.hpp"

namespace bonsai {

// Every column of `a` holds the same bytes as the same column of `b`.
inline void expect_same_columns(const ParticleSet& a, const ParticleSet& b,
                                const std::string& what) {
  int column = 0;
  ParticleSet::each_column([&](auto col) {
    const auto& u = a.*col;
    const auto& v = b.*col;
    EXPECT_TRUE(u.size() == v.size() &&
                (u.empty() || std::memcmp(u.data(), v.data(), u.size() * sizeof(u[0])) == 0))
        << what << ": column " << column << " differs";
    ++column;
  });
}

}  // namespace bonsai
