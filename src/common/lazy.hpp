// A value computed on first use and shared read-only from then on.
//
// Layout indexes and plan layouts are derived data that every simulated rank
// of a run reads, concurrently across fiber workers and host threads.
// LazyShared builds the value once, under its mutex, on the first
// get(); the others wait for it. Copies share whatever was built before the
// copy was made.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

namespace ca3dmm {

template <typename T>
class LazyShared {
 public:
  LazyShared() = default;
  LazyShared(const LazyShared& o) : value_(o.snapshot()) {}
  LazyShared& operator=(const LazyShared& o) {
    std::shared_ptr<const T> v = o.snapshot();
    std::lock_guard<std::mutex> lk(mu_);
    value_ = std::move(v);
    return *this;
  }

  /// The value, built by `build()` on the first call. The reference stays
  /// valid until reset() or destruction.
  template <typename Build>
  const T& get(Build&& build) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (!value_) value_ = std::make_shared<const T>(std::forward<Build>(build)());
    return *value_;
  }

  /// Forgets the value; the next get() rebuilds it.
  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    value_.reset();
  }

 private:
  std::shared_ptr<const T> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return value_;
  }

  mutable std::mutex mu_;
  mutable std::shared_ptr<const T> value_;  ///< guarded by mu_
};

}  // namespace ca3dmm
