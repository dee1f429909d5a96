#pragma once

#include <cstddef>

#include "util/thread_pool.h"

namespace hsconas::testutil {

/// Resize the global pool for one scope, restoring the prior width.
class PoolGuard {
 public:
  explicit PoolGuard(std::size_t threads)
      : prev_(util::ThreadPool::global().size()) {
    util::ThreadPool::configure_global(threads);
  }
  ~PoolGuard() { util::ThreadPool::configure_global(prev_); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;

 private:
  std::size_t prev_;
};

}  // namespace hsconas::testutil
