// Fixed-block storage for append-only per-request records.
//
// The obs span log and event trace, and each run's latency samples,
// grow by one record per simulated request. Kept in one `std::vector`,
// every doubling copies the whole sequence and holds the old and the new
// buffer at once. `BlockLog` keeps the records in fixed blocks instead:
// growth allocates one new block, no record ever moves, a reference into
// the log stays valid for the log's lifetime, and an empty log allocates
// nothing. The table of block pointers starts with room for
// `kBlockTableReserve` blocks, so a log that size allocates nothing but
// its blocks and that one table.
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace dope {

inline constexpr std::size_t kBlockTableReserve = 128;

/// Random-access iterator over any read-only log that offers `size()`
/// and `operator[]`. `reference` is whatever `operator[]` returns: a
/// `const T&` for a `BlockLog`, a view by value for the event trace.
template <class Log>
class IndexIterator {
 public:
  using reference = decltype(std::declval<const Log&>()[0]);
  using value_type = std::remove_cvref_t<reference>;
  using difference_type = std::ptrdiff_t;
  using iterator_category = std::random_access_iterator_tag;

  IndexIterator() = default;
  IndexIterator(const Log* log, std::size_t i) : log_(log), i_(i) {}

  reference operator*() const { return (*log_)[i_]; }
  reference operator[](difference_type n) const {
    return (*log_)[i_ + static_cast<std::size_t>(n)];
  }

  IndexIterator& operator++() {
    ++i_;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator was = *this;
    ++i_;
    return was;
  }
  IndexIterator& operator--() {
    --i_;
    return *this;
  }
  IndexIterator operator--(int) {
    IndexIterator was = *this;
    --i_;
    return was;
  }
  IndexIterator& operator+=(difference_type n) {
    i_ += static_cast<std::size_t>(n);
    return *this;
  }
  IndexIterator& operator-=(difference_type n) {
    i_ -= static_cast<std::size_t>(n);
    return *this;
  }
  friend IndexIterator operator+(IndexIterator it, difference_type n) {
    return it += n;
  }
  friend IndexIterator operator+(difference_type n, IndexIterator it) {
    return it += n;
  }
  friend IndexIterator operator-(IndexIterator it, difference_type n) {
    return it -= n;
  }
  friend difference_type operator-(const IndexIterator& a,
                                   const IndexIterator& b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(const IndexIterator& a, const IndexIterator& b) {
    return a.i_ == b.i_;
  }
  friend auto operator<=>(const IndexIterator& a, const IndexIterator& b) {
    return a.i_ <=> b.i_;
  }

 private:
  const Log* log_ = nullptr;
  std::size_t i_ = 0;
};

/// Append-only sequence of `T` in blocks of `kBlock` elements.
template <class T, std::size_t kBlock>
class BlockLog {
  static_assert(std::has_single_bit(kBlock), "block size: a power of two");

 public:
  using const_iterator = IndexIterator<BlockLog>;

  BlockLog() = default;
  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;

  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return blocks_[i / kBlock][i % kBlock]; }
  const T& operator[](std::size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }
  const T& back() const { return (*this)[size_ - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// Calls `fn(std::span<const T>)` on the filled part of each block, in
  /// order: a linear scan without per-element block arithmetic.
  template <class Fn>
  void for_each_block(Fn&& fn) const {
    for (std::size_t first = 0; first < size_; first += kBlock) {
      fn(std::span<const T>(blocks_[first / kBlock].get(),
                            std::min(kBlock, size_ - first)));
    }
  }

  void push_back(const T& value) {
    if (size_ % kBlock == 0) {
      if (blocks_.empty()) blocks_.reserve(kBlockTableReserve);
      blocks_.push_back(std::make_unique_for_overwrite<T[]>(kBlock));
    }
    blocks_.back()[size_ % kBlock] = value;
    ++size_;
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace dope
