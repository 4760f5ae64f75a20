#ifndef GKNN_UTIL_OBJECT_POOL_H_
#define GKNN_UTIL_OBJECT_POOL_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "util/lockdep.h"

namespace gknn::util {

/// A freelist of reusable per-query scratch objects (KnnEngine's query
/// workspaces, ShardRouter's refinement searches) shared by concurrent
/// callers. Acquire() hands out a recycled object, or builds one when all
/// are out; the lease returns it on scope exit. The freelist sits under
/// an `engine.workspace` leaf lock (rank 905).
template <typename T>
class ObjectPool {
 public:
  /// `make` builds an object when the freelist is empty; `prebuilt`
  /// objects are built up front, so that many concurrent leases never
  /// allocate.
  explicit ObjectPool(std::function<std::unique_ptr<T>()> make,
                      size_t prebuilt = 0)
      : make_(std::move(make)) {
    for (size_t i = 0; i < prebuilt; ++i) free_.push_back(make_());
  }

  struct ReturnToPool {
    ObjectPool* pool;
    void operator()(T* object) const {
      lockdep::MutexLock lock(pool->mu_);
      pool->free_.emplace_back(object);
    }
  };
  /// An object checked out of the pool; returned to it on destruction.
  using Lease = std::unique_ptr<T, ReturnToPool>;

  Lease Acquire() {
    {
      lockdep::MutexLock lock(mu_);
      if (!free_.empty()) {
        T* object = free_.back().release();
        free_.pop_back();
        return Lease(object, ReturnToPool{this});
      }
    }
    return Lease(make_().release(), ReturnToPool{this});
  }

 private:
  std::function<std::unique_ptr<T>()> make_;
  lockdep::Mutex mu_{lockdep::kEngineWorkspaceClass};
  std::vector<std::unique_ptr<T>> free_;  // guarded by mu_
};

}  // namespace gknn::util

#endif  // GKNN_UTIL_OBJECT_POOL_H_
