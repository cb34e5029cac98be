// SortPrefix: the first k elements of std::sort's result, without sorting the
// rest of the range.
//
// After SortPrefix(first, last, k, comp), [first, first + min(k, n)) holds
// exactly what libstdc++'s std::sort(first, last, comp) puts there, ties and
// tie order included; [first + min(k, n), last) holds the remaining elements
// in an unspecified order. It runs libstdc++'s introsort step by step (the
// same threshold, depth limit, median-of-three pivot, unguarded Hoare
// partition and heap-sort fallback) with two differences:
//
//   - a right part [cut, last) whose cut lies at or beyond first + k is not
//     sorted at all;
//   - the final insertion sort runs over [first, M) only, where M is the
//     smallest skipped cut (last when nothing was skipped).
//
// This reproduces std::sort's prefix because a partition leaves every
// element right of its cut no smaller than every element left of it: no
// element past M can move into [first, M), and nothing done right of a cut
// changes what happens to its left. The equivalence holds for libstdc++ only
// (tests/sort_prefix_test.cc checks it there); with k >= n this is a full
// std::sort.

#ifndef CSI_SRC_COMMON_SORT_PREFIX_H_
#define CSI_SRC_COMMON_SORT_PREFIX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <utility>

namespace csi {
namespace sort_prefix_internal {

// Ranges this short are left to the final insertion sort (libstdc++'s
// _S_threshold).
inline constexpr std::ptrdiff_t kThreshold = 16;

template <typename It, typename Compare>
void MoveMedianToFirst(It result, It a, It b, It c, Compare& comp) {
  if (comp(*a, *b)) {
    if (comp(*b, *c)) {
      std::iter_swap(result, b);
    } else if (comp(*a, *c)) {
      std::iter_swap(result, c);
    } else {
      std::iter_swap(result, a);
    }
  } else if (comp(*a, *c)) {
    std::iter_swap(result, a);
  } else if (comp(*b, *c)) {
    std::iter_swap(result, c);
  } else {
    std::iter_swap(result, b);
  }
}

template <typename It, typename Compare>
It UnguardedPartition(It first, It last, It pivot, Compare& comp) {
  while (true) {
    while (comp(*first, *pivot)) {
      ++first;
    }
    --last;
    while (comp(*pivot, *last)) {
      --last;
    }
    if (!(first < last)) {
      return first;
    }
    std::iter_swap(first, last);
    ++first;
  }
}

template <typename It, typename Compare>
void UnguardedLinearInsert(It last, Compare& comp) {
  typename std::iterator_traits<It>::value_type val = std::move(*last);
  It next = last;
  --next;
  while (comp(val, *next)) {
    *last = std::move(*next);
    last = next;
    --next;
  }
  *last = std::move(val);
}

template <typename It, typename Compare>
void InsertionSort(It first, It last, Compare& comp) {
  if (first == last) {
    return;
  }
  for (It i = first + 1; i != last; ++i) {
    if (comp(*i, *first)) {
      typename std::iterator_traits<It>::value_type val = std::move(*i);
      std::move_backward(first, i, i + 1);
      *first = std::move(val);
    } else {
      UnguardedLinearInsert(i, comp);
    }
  }
}

// libstdc++'s __introsort_loop, except that a right part starting at or
// beyond keep_end is skipped and its cut folded into sorted_end.
template <typename It, typename Compare>
void IntrosortLoop(It first, It last, It keep_end, int depth_limit, Compare& comp,
                   It& sorted_end) {
  while (last - first > kThreshold) {
    if (depth_limit == 0) {
      std::partial_sort(first, last, last, comp);
      return;
    }
    --depth_limit;
    MoveMedianToFirst(first, first + 1, first + (last - first) / 2, last - 1, comp);
    const It cut = UnguardedPartition(first + 1, last, first, comp);
    if (cut < keep_end) {
      IntrosortLoop(cut, last, keep_end, depth_limit, comp, sorted_end);
    } else {
      sorted_end = std::min(sorted_end, cut);
    }
    last = cut;
  }
}

}  // namespace sort_prefix_internal

template <typename It, typename Compare>
void SortPrefix(It first, It last, std::ptrdiff_t k, Compare comp) {
  namespace internal = sort_prefix_internal;
  const std::ptrdiff_t n = last - first;
  if (n == 0 || k <= 0) {
    return;
  }
  It sorted_end = last;
  // std::__lg(n) * 2.
  const int depth_limit = 2 * (std::bit_width(static_cast<size_t>(n)) - 1);
  internal::IntrosortLoop(first, last, first + std::min(k, n), depth_limit, comp, sorted_end);
  // libstdc++'s __final_insertion_sort over [first, sorted_end).
  if (sorted_end - first > internal::kThreshold) {
    internal::InsertionSort(first, first + internal::kThreshold, comp);
    for (It i = first + internal::kThreshold; i != sorted_end; ++i) {
      internal::UnguardedLinearInsert(i, comp);
    }
  } else {
    internal::InsertionSort(first, sorted_end, comp);
  }
}

}  // namespace csi

#endif  // CSI_SRC_COMMON_SORT_PREFIX_H_
