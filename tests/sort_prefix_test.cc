// SortPrefix against std::sort: after SortPrefix(first, last, k, comp) the
// first min(k, n) elements must be exactly std::sort's, element by element.
// Every element carries its input position, and only the key is compared, so
// a prefix that holds the right keys in a different tie order fails too.
//
// The equivalence is a property of libstdc++'s introsort, which SortPrefix
// follows step by step; other standard libraries skip the comparison.

#include "src/common/sort_prefix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace csi {
namespace {

struct Item {
  int key;
  int pos;  // input position: tells tied keys apart
};

bool KeyLess(const Item& a, const Item& b) { return a.key < b.key; }

enum class Pattern {
  kAllEqual,
  kTwoValues,
  kThousandValues,
  kDistinct,
  kPresorted,
  kReversed,
  kOrganPipe,
  kMedianOfThreeKiller,
};

const char* Name(Pattern p) {
  switch (p) {
    case Pattern::kAllEqual: return "all_equal";
    case Pattern::kTwoValues: return "two_values";
    case Pattern::kThousandValues: return "thousand_values";
    case Pattern::kDistinct: return "distinct";
    case Pattern::kPresorted: return "presorted";
    case Pattern::kReversed: return "reversed";
    case Pattern::kOrganPipe: return "organ_pipe";
    case Pattern::kMedianOfThreeKiller: return "median_of_three_killer";
  }
  return "?";
}

// A median-of-three killer (Musser 1997) for libstdc++'s pivot rule, built by
// McIlroy's adversary ("A Killer Adversary for Quicksort", 1999): std::sort
// runs over keys that are fixed only when a comparison forces it, each pivot
// candidate is made as small as possible, and the keys so fixed are an input
// on which every partition splits off a sliver. The depth limit then runs out
// and introsort falls back to heap sort.
std::vector<int> MedianOfThreeKiller(int n) {
  const int gas = n;  // larger than every fixed key
  std::vector<int> val(static_cast<size_t>(n), gas);
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  int fixed = 0;
  int candidate = 0;
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    int& vx = val[static_cast<size_t>(x)];
    int& vy = val[static_cast<size_t>(y)];
    if (vx == gas && vy == gas) {
      (x == candidate ? vx : vy) = fixed++;
    }
    if (vx == gas) {
      candidate = x;
    } else if (vy == gas) {
      candidate = y;
    }
    return vx < vy;
  });
  for (int& v : val) {
    if (v == gas) {
      v = fixed++;
    }
  }
  return val;
}

std::vector<Item> MakeInput(Pattern p, int n, Rng& rng) {
  std::vector<int> keys(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    int& key = keys[static_cast<size_t>(i)];
    switch (p) {
      case Pattern::kAllEqual: key = 7; break;
      case Pattern::kTwoValues: key = static_cast<int>(rng.UniformInt(0, 1)); break;
      case Pattern::kThousandValues: key = static_cast<int>(rng.UniformInt(0, 999)); break;
      case Pattern::kDistinct:
      case Pattern::kPresorted: key = i; break;
      case Pattern::kReversed: key = n - i; break;
      case Pattern::kOrganPipe: key = std::min(i, n - 1 - i); break;
      case Pattern::kMedianOfThreeKiller: break;
    }
  }
  if (p == Pattern::kDistinct) {
    for (int i = n - 1; i > 0; --i) {
      std::swap(keys[static_cast<size_t>(i)],
                keys[static_cast<size_t>(rng.UniformInt(0, i))]);
    }
  }
  if (p == Pattern::kMedianOfThreeKiller) {
    keys = MedianOfThreeKiller(n);
  }
  std::vector<Item> items(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    items[static_cast<size_t>(i)] = Item{keys[static_cast<size_t>(i)], i};
  }
  return items;
}

TEST(SortPrefix, MatchesStdSortPrefixWithTieOrder) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "SortPrefix reproduces libstdc++'s std::sort only";
#else
  Rng rng(20);
  for (const int n : {0, 1, 2, 15, 16, 17, 1000, 200000}) {
    for (const Pattern p :
         {Pattern::kAllEqual, Pattern::kTwoValues, Pattern::kThousandValues, Pattern::kDistinct,
          Pattern::kPresorted, Pattern::kReversed, Pattern::kOrganPipe,
          Pattern::kMedianOfThreeKiller}) {
      const std::vector<Item> input = MakeInput(p, n, rng);
      std::vector<Item> expected = input;
      std::sort(expected.begin(), expected.end(), KeyLess);
      for (const std::ptrdiff_t k : {0, 1, 16, 17, n / 2, n - 1, n, n + 3}) {
        SCOPED_TRACE(std::string(Name(p)) + " n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        std::vector<Item> actual = input;
        SortPrefix(actual.begin(), actual.end(), k, KeyLess);
        const size_t prefix = static_cast<size_t>(std::clamp<std::ptrdiff_t>(k, 0, n));
        size_t mismatches = 0;
        for (size_t i = 0; i < prefix; ++i) {
          if (actual[i].key != expected[i].key || actual[i].pos != expected[i].pos) {
            ++mismatches;
          }
        }
        ASSERT_EQ(mismatches, 0u);
        // The whole range is still a permutation of the input.
        std::vector<bool> seen(static_cast<size_t>(n), false);
        for (const Item& item : actual) {
          ASSERT_FALSE(seen[static_cast<size_t>(item.pos)]);
          seen[static_cast<size_t>(item.pos)] = true;
          ASSERT_EQ(item.key, input[static_cast<size_t>(item.pos)].key);
        }
      }
    }
  }
#endif
}

}  // namespace
}  // namespace csi
