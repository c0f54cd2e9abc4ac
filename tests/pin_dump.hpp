#pragma once
// Exact-value pins shared by the test binaries that freeze modeled
// numbers: a case renders what it fixes one fact per line, doubles as
// %.17g (which round-trips, so a string match is a bit-for-bit match),
// and compares the lines against an expected block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

inline std::string pin_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Line-by-line exact comparison; on any mismatch the whole actual dump
/// is printed so a deliberate re-pin is a copy-paste.
inline void expect_pinned(const std::vector<std::string>& actual,
                          const char* expected) {
  std::vector<std::string> want;
  std::string cur;
  for (const char* c = expected; *c != '\0'; ++c) {
    if (*c == '\n') {
      if (!cur.empty()) want.push_back(cur);
      cur.clear();
    } else {
      cur += *c;
    }
  }
  if (!cur.empty()) want.push_back(cur);
  bool same = actual.size() == want.size();
  for (std::size_t i = 0; i < std::min(actual.size(), want.size()); ++i) {
    EXPECT_EQ(actual[i], want[i]) << "pin line " << i;
    same = same && actual[i] == want[i];
  }
  EXPECT_EQ(actual.size(), want.size());
  if (!same) {
    std::string dump;
    for (const auto& l : actual) dump += l + "\n";
    ADD_FAILURE() << "actual pin dump:\n" << dump;
  }
}
