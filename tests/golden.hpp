// Cross-version golden digests shared by the pin tests: an FNV-1a hash of
// some output, compared with a digest committed next to the test. Any
// change in the hashed bytes fails the comparison.
// Regenerate deliberately with CLOUDWF_UPDATE_GOLDEN=1 and say why in
// CHANGES.md.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

namespace cloudwf::golden {

/// FNV-1a, 64 bit, over one or more byte strings fed in order.
class Fnv1a {
 public:
  Fnv1a& add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }

  /// The digest as 16 lowercase hex digits.
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Compares `actual` with the digest stored at `path`, or rewrites the file
/// (and skips the test) when CLOUDWF_UPDATE_GOLDEN is set.
inline void expect_digest(const std::string& path, const std::string& actual,
                          std::string_view what) {
  if (std::getenv("CLOUDWF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual << '\n';
    GTEST_SKIP() << "golden digest regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden digest " << path
                  << " — regenerate with CLOUDWF_UPDATE_GOLDEN=1";
  std::string expected;
  in >> expected;
  EXPECT_EQ(actual, expected)
      << what << " changed; if that is deliberate, regenerate with "
      << "CLOUDWF_UPDATE_GOLDEN=1 and say why in CHANGES.md";
}

}  // namespace cloudwf::golden
