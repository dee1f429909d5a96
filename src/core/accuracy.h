#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/arch.h"
#include "util/thread_pool.h"

namespace hsconas::core {

/// Accuracy oracle of the search components: scores a batch of archs and
/// returns one accuracy per arch, index-aligned. The proxy pipeline plugs
/// in Supernet::evaluate, which shares the stem and layer-0 work of the
/// whole batch; pure per-arch functions (the calibrated surrogate, test
/// oracles) come in through score_each. Scores must not depend on which
/// other archs share the call.
using AccuracyFn =
    std::function<std::vector<double>(const std::vector<Arch>&)>;

/// Lift a per-arch accuracy function onto AccuracyFn: each arch is scored
/// across util::ThreadPool::global() into its own slot, so the result is
/// the same at every pool size. `per_arch` must be safe to call from
/// several threads at once.
inline AccuracyFn score_each(std::function<double(const Arch&)> per_arch) {
  return [fn = std::move(per_arch)](const std::vector<Arch>& archs) {
    std::vector<double> out(archs.size());
    util::ThreadPool::global().parallel_for(
        archs.size(), [&](std::size_t i) { out[i] = fn(archs[i]); });
    return out;
  };
}

}  // namespace hsconas::core
