#include "serve/batch_server.h"

#include <algorithm>

#include "core/supernet.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "tensor/pool_allocator.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hsconas::serve {

namespace {

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("hsconas.serve.queue_depth");
  return g;
}

obs::Gauge& queue_depth_peak_gauge() {
  static obs::Gauge& g = obs::gauge("hsconas.serve.queue_depth_peak");
  return g;
}

}  // namespace

/// One in-flight request. Lives on the submitting thread's stack for the
/// whole exchange — the queue holds only pointers — so the request path
/// allocates nothing.
struct BatchServer::Request {
  std::span<const float> input;
  std::span<float> output;
  std::uint64_t ticket = 0;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t batch = 0;
  std::size_t batch_index = 0;
  bool done = false;                ///< guarded by BatchServer::mutex_
  std::exception_ptr error;         ///< set if the lane forward threw
};

BatchServer::BatchServer(const core::SearchSpace& space,
                         const core::Arch& arch, const ServerConfig& config)
    : config_(config), lanes_(std::max<std::size_t>(1, config.workers)) {
  if (config_.batch_max == 0) {
    throw InvalidArgument("BatchServer: batch_max must be >= 1");
  }
  if (config_.workers == 0) config_.workers = 1;
  if (config_.queue_capacity < config_.batch_max) {
    config_.queue_capacity = config_.batch_max;
  }

  const core::SearchSpaceConfig& sc = space.config();
  channels_ = sc.input_channels;
  height_ = sc.input_size;
  width_ = sc.input_size;
  input_size_ = static_cast<std::size_t>(channels_ * height_ * width_);
  output_size_ = static_cast<std::size_t>(sc.num_classes);

  net_ = std::make_unique<core::Supernet>(space, config_.seed, arch);
  net_->set_mode(config_.fuse ? nn::Mode::kEvalFused : nn::Mode::kEval);

  if (config_.dtype == nn::InferenceDType::kI8) {
    // Calibration runs in the network's own (fused or plain) eval mode,
    // so the observers see the activations the served forward produces.
    if (config_.calibration_batches == 0) config_.calibration_batches = 1;
    util::Rng calib_rng(config_.seed ^ 0xCA11B);
    std::vector<tensor::Tensor> batches;
    batches.reserve(config_.calibration_batches);
    const long n = static_cast<long>(config_.batch_max);
    for (std::size_t b = 0; b < config_.calibration_batches; ++b) {
      batches.push_back(tensor::Tensor::uniform(
          {n, channels_, height_, width_}, -1.0f, 1.0f, calib_rng));
    }
    net_->calibrate_quant(batches);
  }

  ring_.assign(config_.queue_capacity, nullptr);

  HSCONAS_LOG_INFO << "serve: batch server up"
      << " batch_max=" << config_.batch_max
      << " deadline_us=" << config_.deadline_us
      << " workers=" << config_.workers
      << " queue=" << config_.queue_capacity
      << " fused=" << (config_.fuse ? 1 : 0)
      << " dtype=" << nn::inference_dtype_name(config_.dtype);

  for (std::size_t i = 0; i < config_.workers; ++i) {
    lanes_.submit([this] { lane(); });
  }
}

BatchServer::~BatchServer() { shutdown(); }

void BatchServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  // Lanes drain every queued request before exiting; wait() returns once
  // the last lane task has finished.
  lanes_.wait();
}

BatchServer::Request* BatchServer::pop_front_locked() {
  Request* r = ring_[head_];
  ring_[head_] = nullptr;
  head_ = (head_ + 1) % ring_.size();
  --queued_;
  return r;
}

Receipt BatchServer::infer(std::span<const float> input,
                           std::span<float> output) {
  static obs::Counter& requests = obs::counter("hsconas.serve.requests");
  static obs::Counter& rejected = obs::counter("hsconas.serve.rejected");
  static obs::Histogram& latency =
      obs::histogram("hsconas.serve.latency_ms");

  if (input.size() != input_size_) {
    throw InvalidArgument("BatchServer::infer: input span has " +
                          std::to_string(input.size()) + " floats, expected " +
                          std::to_string(input_size_));
  }
  if (output.size() != output_size_) {
    throw InvalidArgument("BatchServer::infer: output span has " +
                          std::to_string(output.size()) +
                          " floats, expected " + std::to_string(output_size_));
  }

  Request req;
  req.input = input;
  req.output = output;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_space_.wait(lock,
                   [&] { return stopping_ || queued_ < ring_.size(); });
    if (stopping_) {
      rejected.add();
      throw Error("BatchServer::infer: server is shutting down");
    }
    req.ticket = next_ticket_++;
    req.enqueue_ns = obs::monotonic_ns();
    ring_[(head_ + queued_) % ring_.size()] = &req;
    ++queued_;
    const double depth = static_cast<double>(queued_);
    queue_depth_gauge().set(depth);
    queue_depth_peak_gauge().update_max(depth);
  }
  cv_work_.notify_one();

  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return req.done; });
  }
  if (req.error) std::rethrow_exception(req.error);

  Receipt receipt;
  receipt.ticket = req.ticket;
  receipt.batch = req.batch;
  receipt.batch_index = req.batch_index;
  receipt.latency_ms =
      static_cast<double>(obs::monotonic_ns() - req.enqueue_ns) / 1e6;
  latency.record(receipt.latency_ms);
  requests.add();
  return receipt;
}

void BatchServer::lane() {
  // Lane-thread opt-in to the recycling tensor pool: every batch/
  // activation tensor constructed below is pooled, which is what makes
  // steady-state serving heap-allocation-free.
  tensor::ScopedTensorPool pool_scope;

  std::vector<Request*> claimed;
  claimed.reserve(config_.batch_max);

  for (;;) {
    std::uint64_t batch_id = 0;
    claimed.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        cv_work_.wait(lock, [&] { return stopping_ || queued_ > 0; });
        if (queued_ == 0) {
          if (stopping_) return;
          continue;
        }
        // Dynamic batching window: wait for batch_max occupancy, but no
        // longer than deadline_us past the oldest request's arrival.
        // During shutdown, flush immediately to drain.
        const std::uint64_t flush_ns =
            ring_[head_]->enqueue_ns + config_.deadline_us * 1000;
        while (!stopping_ && queued_ > 0 && queued_ < config_.batch_max) {
          const std::uint64_t now = obs::monotonic_ns();
          if (now >= flush_ns) break;
          obs::wait_for_ns(cv_work_, lock, flush_ns - now);
        }
        if (queued_ == 0) continue;  // another lane claimed the window
        break;
      }
      const std::size_t k = std::min(config_.batch_max, queued_);
      batch_id = next_batch_++;
      for (std::size_t i = 0; i < k; ++i) {
        Request* r = pop_front_locked();
        r->batch = batch_id;
        r->batch_index = i;
        claimed.push_back(r);
      }
      queue_depth_gauge().set(static_cast<double>(queued_));
    }
    cv_space_.notify_all();

    run_batch(claimed, batch_id);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (Request* r : claimed) r->done = true;
    }
    cv_done_.notify_all();
  }
}

void BatchServer::run_batch(std::span<Request* const> batch,
                            std::uint64_t batch_id) {
  static obs::Counter& batches = obs::counter("hsconas.serve.batches");
  static obs::Histogram& occupancy =
      obs::histogram("hsconas.serve.batch_occupancy");
  static obs::Histogram& forward_ms =
      obs::histogram("hsconas.serve.forward_ms");

  const long n = static_cast<long>(batch.size());
  try {
    tensor::Tensor images({n, channels_, height_, width_});
    float* dst = images.data();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(batch[i]->input.begin(), batch[i]->input.end(),
                dst + i * input_size_);
    }

    const std::uint64_t t0 = obs::monotonic_ns();
    const tensor::Tensor logits = net_->forward(images);
    forward_ms.record(static_cast<double>(obs::monotonic_ns() - t0) / 1e6);

    if (logits.numel() !=
        n * static_cast<long>(output_size_)) {
      throw Error("BatchServer: unexpected logits geometry " +
                  logits.shape_str());
    }
    const float* src = logits.data();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::copy(src + i * output_size_, src + (i + 1) * output_size_,
                batch[i]->output.begin());
    }
    batches.add();
    occupancy.record(static_cast<double>(n));
  } catch (...) {
    HSCONAS_LOG_WARN << "serve: batch " << batch_id
                     << " failed; propagating to " << batch.size()
                     << " callers";
    for (Request* r : batch) r->error = std::current_exception();
  }
}

}  // namespace hsconas::serve
