// Serving-layer contracts (ctest -L serving; the TSan CI stage re-runs
// this label): dynamic-batching flush rules, FIFO scheduling, the
// zero-allocation steady state, graceful shutdown, batched-vs-sequential
// bit-identity, two differently configured servers side by side, one
// calibration shared by every int8 lane, and the
// ThreadPool::configure_global mid-flight rejection these lanes rely on.
// Each TEST runs as its own ctest process
// (gtest_discover_tests), so global-pool and metric state never leaks
// between cases.

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/arch.h"
#include "core/search_space.h"
#include "core/supernet.h"
#include "obs/metrics.h"
#include "serve/batch_server.h"
#include "serve/load_gen.h"
#include "tensor/pool_allocator.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace hsconas;

core::SearchSpace proxy_space() {
  return core::SearchSpace(core::SearchSpaceConfig::proxy());
}

core::Arch sample_arch(const core::SearchSpace& space,
                       std::uint64_t seed = 3) {
  util::Rng rng(seed);
  return core::Arch::random(space, rng);
}

std::vector<float> sample_input(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> xs(n);
  for (float& v : xs) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return xs;
}

TEST(BatchServer, ValidatesSpanGeometry) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::BatchServer server(space, sample_arch(space), cfg);

  std::vector<float> input(server.input_size());
  std::vector<float> output(server.output_size());
  std::vector<float> short_input(server.input_size() - 1);
  std::vector<float> short_output(server.output_size() - 1);
  EXPECT_THROW(server.infer(short_input, output), InvalidArgument);
  EXPECT_THROW(server.infer(input, short_output), InvalidArgument);
  EXPECT_NO_THROW(server.infer(input, output));
}

// A full batch must flush immediately — well before a deliberately huge
// deadline window.
TEST(BatchServer, FlushesAtBatchMaxBeforeDeadline) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 4;
  cfg.deadline_us = 5'000'000;  // 5 s: a deadline flush would time out
  serve::BatchServer server(space, sample_arch(space), cfg);

  std::vector<std::vector<float>> inputs, outputs;
  for (std::size_t i = 0; i < 4; ++i) {
    inputs.push_back(sample_input(server.input_size(), 100 + i));
    outputs.emplace_back(server.output_size());
  }
  std::vector<serve::Receipt> receipts(4);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      receipts[i] = server.infer(inputs[i], outputs[i]);
    });
  }
  for (auto& t : clients) t.join();

  // One batch, fully occupied: every receipt carries the same batch id
  // and the batch indexes are a permutation of 0..3.
  std::vector<bool> seen(4, false);
  for (const serve::Receipt& r : receipts) {
    EXPECT_EQ(r.batch, receipts[0].batch);
    ASSERT_LT(r.batch_index, 4u);
    EXPECT_FALSE(seen[r.batch_index]);
    seen[r.batch_index] = true;
    // Flushed at occupancy, not at the 5 s deadline.
    EXPECT_LT(r.latency_ms, 4000.0);
  }
}

// A lone request must be served by the deadline flush even though the
// batch never fills.
TEST(BatchServer, DeadlineFlushServesPartialBatch) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 64;
  cfg.deadline_us = 20'000;  // 20 ms window
  serve::BatchServer server(space, sample_arch(space), cfg);

  std::vector<float> input = sample_input(server.input_size(), 7);
  std::vector<float> output(server.output_size());
  const serve::Receipt r = server.infer(input, output);
  EXPECT_EQ(r.batch_index, 0u);
  // The request waited out (most of) the batching window.
  EXPECT_GE(r.latency_ms, 10.0);
  for (float v : output) EXPECT_TRUE(std::isfinite(v));
}

// FIFO: sorted by arrival ticket, placements (batch, batch_index) must be
// lexicographically non-decreasing — no request overtakes an earlier one.
TEST(BatchServer, FifoUnderConcurrentSubmitters) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 3;
  cfg.deadline_us = 500;
  serve::BatchServer server(space, sample_arch(space), cfg);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 10;
  std::vector<serve::Receipt> receipts(kClients * kPerClient);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> input = sample_input(server.input_size(), c);
      std::vector<float> output(server.output_size());
      for (std::size_t r = 0; r < kPerClient; ++r) {
        receipts[c * kPerClient + r] = server.infer(input, output);
      }
    });
  }
  for (auto& t : clients) t.join();

  std::vector<const serve::Receipt*> by_ticket;
  for (const serve::Receipt& r : receipts) by_ticket.push_back(&r);
  std::sort(by_ticket.begin(), by_ticket.end(),
            [](const serve::Receipt* a, const serve::Receipt* b) {
              return a->ticket < b->ticket;
            });
  for (std::size_t i = 0; i < by_ticket.size(); ++i) {
    EXPECT_EQ(by_ticket[i]->ticket, i);  // dense arrival order
    if (i == 0) continue;
    const serve::Receipt& prev = *by_ticket[i - 1];
    const serve::Receipt& cur = *by_ticket[i];
    EXPECT_TRUE(cur.batch > prev.batch ||
                (cur.batch == prev.batch &&
                 cur.batch_index == prev.batch_index + 1))
        << "ticket " << cur.ticket << " placed at (" << cur.batch << ","
        << cur.batch_index << ") after (" << prev.batch << ","
        << prev.batch_index << ")";
  }
}

// The headline memory contract: once warm, serving performs zero heap
// allocations — pinned by the tensor-pool and workspace heap counters.
TEST(BatchServer, ZeroAllocationSteadyState) {
  // Single-worker global pool: GEMM scratch leases stay on the lane
  // thread, so the workspace counter below is deterministic.
  util::ThreadPool::configure_global(1);
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 1;
  cfg.deadline_us = 0;
  serve::BatchServer server(space, sample_arch(space), cfg);

  std::vector<float> input = sample_input(server.input_size(), 11);
  std::vector<float> output(server.output_size());
  for (int i = 0; i < 10; ++i) server.infer(input, output);  // warm-up

  const std::uint64_t pool_heap0 = tensor::tensor_pool_heap_allocs();
  const std::uint64_t pool_hits0 = tensor::tensor_pool_hits();
  const double ws_heap0 =
      static_cast<double>(obs::counter("hsconas.workspace.heap_allocs")
                              .value());
  for (int i = 0; i < 30; ++i) server.infer(input, output);

  EXPECT_EQ(tensor::tensor_pool_heap_allocs(), pool_heap0)
      << "steady-state serving hit the heap for tensor storage";
  EXPECT_EQ(static_cast<double>(
                obs::counter("hsconas.workspace.heap_allocs").value()),
            ws_heap0)
      << "steady-state serving grew the scratch arena";
  // And the pool was actually exercised, not bypassed.
  EXPECT_GT(tensor::tensor_pool_hits(), pool_hits0);
  server.shutdown();
  util::ThreadPool::configure_global(0);
}

// Graceful shutdown: everything enqueued before shutdown() completes;
// everything after is rejected with a checked error.
TEST(BatchServer, GracefulShutdownDrainsInFlightRequests) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 100;           // never fills
  cfg.deadline_us = 2'000'000;   // 2 s: requests linger until shutdown
  serve::BatchServer server(space, sample_arch(space), cfg);

  constexpr std::size_t kClients = 6;
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<float> input = sample_input(server.input_size(), c);
      std::vector<float> output(server.output_size());
      server.infer(input, output);
      for (float v : output) ASSERT_TRUE(std::isfinite(v));
      completed.fetch_add(1);
    });
  }
  // Wait until all six are queued (none can complete: the batch cannot
  // fill and the deadline is far away), then pull the plug.
  obs::Gauge& depth = obs::gauge("hsconas.serve.queue_depth");
  while (depth.value() < static_cast<double>(kClients)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients);

  std::vector<float> input(server.input_size());
  std::vector<float> output(server.output_size());
  EXPECT_THROW(server.infer(input, output), Error);
}

// Batched execution must be bit-identical to one-sample-at-a-time
// forwards through an identically-seeded standalone network.
TEST(BatchServer, BatchedMatchesSequentialBitExact) {
  const core::SearchSpace space = proxy_space();
  const core::Arch arch = sample_arch(space);
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 4;
  cfg.deadline_us = 5'000'000;
  cfg.seed = 99;
  serve::BatchServer server(space, arch, cfg);

  std::vector<std::vector<float>> inputs, outputs;
  for (std::size_t i = 0; i < 4; ++i) {
    inputs.push_back(sample_input(server.input_size(), 40 + i));
    outputs.emplace_back(server.output_size());
  }
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] { server.infer(inputs[i], outputs[i]); });
  }
  for (auto& t : clients) t.join();

  // Reference: same seed, same arch, same fused eval path, batch of 1.
  core::Supernet reference(space, cfg.seed, arch);
  reference.set_mode(nn::Mode::kEvalFused);
  const auto& sc = space.config();
  for (std::size_t i = 0; i < 4; ++i) {
    tensor::Tensor one({1, sc.input_channels, sc.input_size, sc.input_size});
    std::copy(inputs[i].begin(), inputs[i].end(), one.data());
    const tensor::Tensor logits = reference.forward(one);
    ASSERT_EQ(static_cast<std::size_t>(logits.numel()),
              server.output_size());
    for (std::size_t j = 0; j < server.output_size(); ++j) {
      EXPECT_EQ(outputs[i][j], logits.data()[j])
          << "sample " << i << " logit " << j
          << " differs between batched and sequential execution";
    }
  }
}

// Two servers with different datapaths share one process: an int8 fused
// server and an fp32 unfused one, alive together and fed by interleaved
// clients. Each server's execution state lives in its own network, so
// every answer must be bit-identical to that server running alone.
TEST(BatchServer, Int8FusedAndF32UnfusedServersRunSideBySide) {
  const core::SearchSpace space = proxy_space();
  const core::Arch arch = sample_arch(space);
  serve::ServerConfig int8_cfg;
  int8_cfg.workers = 2;
  int8_cfg.batch_max = 4;
  int8_cfg.deadline_us = 200;
  int8_cfg.seed = 99;
  int8_cfg.dtype = nn::InferenceDType::kI8;
  int8_cfg.fuse = true;
  serve::ServerConfig f32_cfg = int8_cfg;
  f32_cfg.dtype = nn::InferenceDType::kF32;
  f32_cfg.fuse = false;

  const auto& sc = space.config();
  const auto input_size =
      static_cast<std::size_t>(sc.input_channels * sc.input_size *
                               sc.input_size);
  constexpr std::size_t kInputs = 8;
  std::vector<std::vector<float>> inputs;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(sample_input(input_size, 300 + i));
  }
  auto alone = [&](const serve::ServerConfig& cfg) {
    serve::BatchServer server(space, arch, cfg);
    std::vector<std::vector<float>> out(
        kInputs, std::vector<float>(server.output_size()));
    for (std::size_t i = 0; i < kInputs; ++i) server.infer(inputs[i], out[i]);
    return out;
  };
  const auto int8_alone = alone(int8_cfg);
  const auto f32_alone = alone(f32_cfg);
  ASSERT_NE(int8_alone, f32_alone) << "the two datapaths must differ";

  serve::BatchServer int8_server(space, arch, int8_cfg);
  serve::BatchServer f32_server(space, arch, f32_cfg);
  const std::size_t classes = int8_server.output_size();
  std::vector<std::vector<float>> int8_out(kInputs,
                                           std::vector<float>(classes));
  std::vector<std::vector<float>> f32_out(kInputs,
                                          std::vector<float>(classes));
  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < kInputs; i += kClients) {
        // Alternate which server each client hits first.
        if (i % 2 == 0) {
          int8_server.infer(inputs[i], int8_out[i]);
          f32_server.infer(inputs[i], f32_out[i]);
        } else {
          f32_server.infer(inputs[i], f32_out[i]);
          int8_server.infer(inputs[i], int8_out[i]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < kInputs; ++i) {
    EXPECT_EQ(int8_out[i], int8_alone[i]) << "int8 fused answer " << i;
    EXPECT_EQ(f32_out[i], f32_alone[i]) << "f32 unfused answer " << i;
  }
}

// Every lane of an int8 server runs the one network the server calibrated
// at construction: one calibration however many lanes there are, and
// answers computed concurrently by four lanes equal a one-lane server's.
TEST(BatchServer, Int8LanesShareOneCalibratedNetwork) {
  const core::SearchSpace space = proxy_space();
  const core::Arch arch = sample_arch(space);
  serve::ServerConfig cfg;
  cfg.workers = 4;
  cfg.batch_max = 1;
  cfg.seed = 99;
  cfg.dtype = nn::InferenceDType::kI8;
  obs::Counter& calibrations = obs::counter("hsconas.quant.calibrations");
  const std::uint64_t before = calibrations.value();
  serve::BatchServer server(space, arch, cfg);
  EXPECT_EQ(calibrations.value(), before + 1);

  constexpr std::size_t kInputs = 12;
  constexpr std::size_t kClients = 4;
  std::vector<std::vector<float>> inputs, outputs;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(sample_input(server.input_size(), 500 + i));
    outputs.emplace_back(server.output_size());
  }
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < kInputs; i += kClients) {
        server.infer(inputs[i], outputs[i]);
      }
    });
  }
  for (auto& t : clients) t.join();

  serve::ServerConfig one_lane = cfg;
  one_lane.workers = 1;
  serve::BatchServer reference(space, arch, one_lane);
  std::vector<float> expected(reference.output_size());
  for (std::size_t i = 0; i < kInputs; ++i) {
    reference.infer(inputs[i], expected);
    EXPECT_EQ(outputs[i], expected) << "answer " << i;
  }
}

// Load-generator smoke: a closed-loop run completes error-free with a
// coherent report.
TEST(LoadGen, ClosedLoopRunProducesCoherentReport) {
  const core::SearchSpace space = proxy_space();
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.batch_max = 4;
  serve::BatchServer server(space, sample_arch(space), cfg);

  serve::LoadGenConfig load;
  load.clients = 4;
  load.requests_per_client = 10;
  load.warmup_per_client = 3;
  const serve::LoadGenReport report = serve::run_load(server, load);

  EXPECT_EQ(report.total_requests, 40u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GT(report.latency_p50_ms, 0.0);
  EXPECT_LE(report.latency_p50_ms, report.latency_p95_ms);
  EXPECT_LE(report.latency_p95_ms, report.latency_p99_ms);
  EXPECT_LE(report.latency_p99_ms, report.latency_max_ms);
  EXPECT_GT(report.batches, 0.0);
  EXPECT_GE(report.batch_occupancy_mean, 1.0);

  const util::Json doc = report.to_json();
  EXPECT_EQ(doc.find("schema")->as_string(), "hsconas.serving.v1");
  EXPECT_DOUBLE_EQ(doc.find("results")->find("total_requests")->as_double(),
                   40.0);
}

// The reconfiguration contract the serving lanes rely on (and the bug
// this PR fixes): swapping the global pool under live work is a checked
// error, not a race. TSan covers the submit/busy/configure interleaving.
TEST(ThreadPoolReconfigure, RejectsMidFlightReconfiguration) {
  util::ThreadPool::configure_global(2);
  util::ThreadPool& pool = util::ThreadPool::global();

  std::atomic<bool> release{false};
  pool.submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_TRUE(pool.busy());
  EXPECT_THROW(util::ThreadPool::configure_global(4), Error);
  // The rejected call must leave the current pool fully functional.
  release.store(true);
  pool.wait();
  EXPECT_FALSE(pool.busy());
  EXPECT_NO_THROW(util::ThreadPool::configure_global(0));
}

TEST(ThreadPoolReconfigure, RejectsWhileParallelForInFlight) {
  util::ThreadPool::configure_global(2);
  util::ThreadPool& pool = util::ThreadPool::global();

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread looper([&] {
    pool.parallel_for(8, [&](std::size_t) {
      entered.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pool.busy());
  EXPECT_THROW(util::ThreadPool::configure_global(4), Error);
  release.store(true);
  looper.join();
  EXPECT_FALSE(pool.busy());
  EXPECT_NO_THROW(util::ThreadPool::configure_global(0));
}

}  // namespace
