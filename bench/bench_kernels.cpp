// Micro-benchmarks (google-benchmark) for the compute substrate: GEMM,
// im2col convolutions (fwd/bwd), choice blocks, one supernet training step
// and the latency model's prediction path. These guard against performance
// regressions in the kernels everything else sits on.
//
// Pass `--json <path>` (in addition to the usual --benchmark_* flags) to
// also dump a machine-readable summary for the perf trajectory tooling:
// {"results": [{"op", "shape", "ns_per_iter", "gflops"}, ...],
//  "metrics": <obs metrics snapshot>}. The snapshot carries the kernel
// entry counters (GEMM/im2col calls, accumulated FLOPs) and the workspace
// high-water mark accumulated over the benchmark session, so a saved run
// records not just how fast the kernels were but how often each path ran.
//
// Pass `--threads N` to size the global ThreadPool for the whole session
// (recorded in the JSON as "threads"); BM_GemmThreads additionally sweeps
// 1/2/4/8 workers in-process via ThreadPool::configure_global to expose
// the macro-kernel's scaling curve in a single run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/latency_model.h"
#include "core/supernet.h"
#include "core/trainer.h"
#include "hwsim/registry.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/quantize.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/gemm_i8.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using namespace hsconas;
using tensor::Tensor;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({static_cast<long>(n), static_cast<long>(n)}, -1, 1, rng);
  const Tensor b = Tensor::uniform({static_cast<long>(n), static_cast<long>(n)}, -1, 1, rng);
  Tensor c({static_cast<long>(n), static_cast<long>(n)});
  for (auto _ : state) {
    tensor::gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The quantized twin of BM_Gemm at the same square sizes: int8×uint8 →
// int32 with the requantize epilogue folded into the C writeback — the
// exact kernel the int8 inference path runs, fed the dense n×n B as the
// 1×1 view of one n-channel 1×n image. The (op, shape) keys mirror
// BM_Gemm so the ledger's dtype column prices the fp32 → int8 step
// directly (target >= 1.5x; see docs/QUANTIZATION.md).
void BM_GemmInt8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<std::int8_t> a(n * n);
  std::vector<std::uint8_t> b(n * n);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.randint(-127, 127));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.randint(0, 255));
  std::vector<float> scales(n, 0.02f);
  std::vector<std::int32_t> bias(n, 0);
  tensor::QuantEpilogue ep;
  ep.scale = scales.data();
  ep.acc_bias = bias.data();
  Tensor c({static_cast<long>(n), static_cast<long>(n)});
  const tensor::ConvInput<std::uint8_t> view{
      b.data(), n * n, {static_cast<long>(n), 1, static_cast<long>(n), 1, 1, 0},
      1, 0};
  for (auto _ : state) {
    tensor::gemm_i8_requant(n, a.data(), n, view,
                            tensor::ConvOutput{c.data(), n * n}, ep);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_GemmInt8)->Arg(64)->Arg(128)->Arg(256);

// Same kernel, explicit worker-count sweep: range(0) is the square size,
// range(1) the pool width. The global pool is resized for the duration of
// the run and restored afterwards so the remaining benchmarks keep the
// session-level --threads setting.
void BM_GemmThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t prev = util::ThreadPool::global().size();
  util::ThreadPool::configure_global(threads);
  util::Rng rng(1);
  const Tensor a = Tensor::uniform({static_cast<long>(n), static_cast<long>(n)}, -1, 1, rng);
  const Tensor b = Tensor::uniform({static_cast<long>(n), static_cast<long>(n)}, -1, 1, rng);
  Tensor c({static_cast<long>(n), static_cast<long>(n)});
  for (auto _ : state) {
    tensor::gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<long>(n * n * n));
  util::ThreadPool::configure_global(prev);
}
BENCHMARK(BM_GemmThreads)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

void BM_ConvForward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2d conv(16, 32, 3, 1, 1, 1, false, rng);
  const Tensor x = Tensor::uniform({4, 16, 16, 16}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

// The served network's small convs (perfbench's fixed arch, docs/
// PERFORMANCE.md) at the serving batch of 8, and the proxy search's
// scoring convs at its evaluation batch of 36, as eval-mode forwards in
// each dtype; the int8 layer is calibrated on its own input. Registered
// from main() as BM_ConvForward/<shape>/<dtype>, so the ledger prices the
// fp32 -> int8 step per shape. The dw rows are the arch's six depthwise
// signatures (`s2`: stride 2), pw and stem its first pointwise and stem.
// The b36 rows are the proxy's in-block 1×1 convs, its head and its stem,
// bias-free like the supernet's convs, so their fp32 rows price the
// epilogue-free GEMM a candidate score runs.
struct ServedConv {
  const char* name;
  long in_ch, out_ch, kernel, stride, pad, groups, size;  // size: H = W
  long batch = 8;
  bool bias = true;
};
constexpr ServedConv kServedConvs[] = {
    {"dw8_k3_16x16_b8", 8, 8, 3, 1, 1, 8, 16},
    {"dw16_k3_8x8_b8", 16, 16, 3, 1, 1, 16, 8},
    {"dw32_k3_4x4_b8", 32, 32, 3, 1, 1, 32, 4},
    {"dw32_k3s2_8x8_b8", 32, 32, 3, 2, 1, 32, 8},
    {"dw16_k7s2_16x16_b8", 16, 16, 7, 2, 3, 16, 16},
    {"dw16_k3s2_16x16_b8", 16, 16, 3, 2, 1, 16, 16},
    {"pw8_8_16x16_b8", 8, 8, 1, 1, 0, 1, 16},
    {"stem3_16_k3_16x16_b8", 3, 16, 3, 1, 1, 1, 16},
    {"pw8_8_12x12_b36", 8, 8, 1, 1, 0, 1, 12, 36, false},
    {"pw32_32_3x3_b36", 32, 32, 1, 1, 0, 1, 3, 36, false},
    {"head64_128_3x3_b36", 64, 128, 1, 1, 0, 1, 3, 36, false},
    {"stem3_16_k3_12x12_b36", 3, 16, 3, 1, 1, 1, 12, 36, false},
};

void BM_ServedConvForward(benchmark::State& state, ServedConv shape,
                          nn::InferenceDType dtype) {
  util::Rng rng(2);
  nn::Conv2d conv(shape.in_ch, shape.out_ch, shape.kernel, shape.stride,
                  shape.pad, shape.groups, shape.bias, rng);
  const Tensor x = Tensor::uniform(
      {shape.batch, shape.in_ch, shape.size, shape.size}, -1, 1, rng);
  conv.set_mode(nn::Mode::kEval);
  if (dtype == nn::InferenceDType::kI8) nn::calibrate(conv, {x});
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}

void register_served_convs() {
  for (const ServedConv& shape : kServedConvs) {
    for (nn::InferenceDType dtype :
         {nn::InferenceDType::kF32, nn::InferenceDType::kI8}) {
      const std::string name = std::string("BM_ConvForward/") + shape.name +
                               "/" + nn::inference_dtype_name(dtype);
      benchmark::RegisterBenchmark(name.c_str(), BM_ServedConvForward, shape,
                                   dtype);
    }
  }
}

void BM_ConvBackward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Conv2d conv(16, 32, 3, 1, 1, 1, false, rng);
  const Tensor x = Tensor::uniform({4, 16, 16, 16}, -1, 1, rng);
  const Tensor y = conv.forward(x);
  const Tensor dy = Tensor::uniform(y.shape(), -1, 1, rng);
  for (auto _ : state) {
    Tensor dx = conv.backward(dy);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward);

// conv → BN → ReLU priced as three composed eval-mode module passes —
// the pre-fusion baseline for BM_ConvBnReluFused below.
void BM_ConvBnReluUnfused(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2d conv(16, 32, 3, 1, 1, 1, false, rng);
  nn::BatchNorm2d bn(32);
  nn::ReLU relu;
  conv.set_mode(nn::Mode::kEval);
  bn.set_mode(nn::Mode::kEval);
  relu.set_mode(nn::Mode::kEval);
  const Tensor x = Tensor::uniform({4, 16, 16, 16}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = relu.forward(bn.forward(conv.forward(x)));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvBnReluUnfused);

// Same computation as a kEvalFused Sequential: bias/BN/ReLU folded into
// the GEMM writeback epilogue.
void BM_ConvBnReluFused(benchmark::State& state) {
  util::Rng rng(2);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Conv2d>(16, 32, 3, 1, 1, 1, false, rng));
  seq.add(std::make_unique<nn::BatchNorm2d>(32));
  seq.add(std::make_unique<nn::ReLU>());
  seq.set_mode(nn::Mode::kEvalFused);
  const Tensor x = Tensor::uniform({4, 16, 16, 16}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = seq.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvBnReluFused);

void BM_DepthwiseConvForward(benchmark::State& state) {
  util::Rng rng(4);
  nn::Conv2d conv(32, 32, 5, 1, 2, 32, false, rng);
  const Tensor x = Tensor::uniform({4, 32, 16, 16}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DepthwiseConvForward);

// The proxy search's depthwise shape: 16 channels, k3, 12x12, at the
// candidate-evaluation batch of 36. Small planes, so this prices the
// border split and the pool's work floor rather than raw MAC throughput.
void BM_DepthwiseConvProxy(benchmark::State& state) {
  util::Rng rng(4);
  nn::Conv2d conv(16, 16, 3, 1, 1, 16, false, rng);
  const Tensor x = Tensor::uniform({36, 16, 12, 12}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DepthwiseConvProxy);

// ReLU forward at a proxy activation shape, on mixed-sign input (arg 0)
// and all-positive input (arg 1). A branching loop is several times
// slower on the first (the branch mispredicts); the branch-free loop
// costs the same on both.
void BM_ReLUForward(benchmark::State& state) {
  util::Rng rng(6);
  const float lo = state.range(0) == 0 ? -1.0f : 0.5f;
  const Tensor x = Tensor::uniform({36, 16, 12, 12}, lo, 1, rng);
  nn::ReLU relu;
  for (auto _ : state) {
    Tensor y = relu.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ReLUForward)->Arg(0)->Arg(1);

// BatchNorm forward with batch statistics at a proxy activation shape, in
// train mode (keeps x-hat and 1/sigma for backward) and in score mode
// (writes only the output) — the two ways a candidate forward can run.
void BM_BatchNormForward(benchmark::State& state, nn::Mode mode) {
  util::Rng rng(7);
  const Tensor x = Tensor::normal({36, 16, 12, 12}, 0.5f, 1.0f, rng);
  nn::BatchNorm2d bn(16);
  bn.set_mode(mode);
  for (auto _ : state) {
    Tensor y = bn.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK_CAPTURE(BM_BatchNormForward, train, nn::Mode::kTrain);
BENCHMARK_CAPTURE(BM_BatchNormForward, score, nn::Mode::kScore);

void BM_ChoiceBlockForward(benchmark::State& state) {
  util::Rng rng(5);
  const auto kind = static_cast<nn::BlockKind>(state.range(0));
  nn::ShuffleChoiceBlock block(kind, 32, 32, 1, rng);
  const Tensor x = Tensor::uniform({4, 32, 12, 12}, -1, 1, rng);
  for (auto _ : state) {
    Tensor y = block.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ChoiceBlockForward)->Arg(0)->Arg(2)->Arg(3)->Arg(4);

void BM_SupernetTrainStep(benchmark::State& state) {
  const core::SearchSpace space(core::SearchSpaceConfig::proxy(10, 16, 1));
  core::Supernet net(space, 6);
  data::SyntheticConfig dc;
  dc.num_classes = 10;
  dc.train_size = 64;
  dc.val_size = 16;
  dc.image_size = 16;
  const data::SyntheticDataset dataset(dc);
  core::TrainConfig tc;
  tc.batch_size = 32;
  core::SupernetTrainer trainer(net, dataset, tc);
  data::DataLoader loader(dataset, 32, true, 1);
  const data::Batch batch = loader.batch(0);
  util::Rng rng(7);
  for (auto _ : state) {
    const core::Arch arch = core::Arch::random(space, rng);
    benchmark::DoNotOptimize(trainer.step(batch, arch, 0.05));
  }
}
BENCHMARK(BM_SupernetTrainStep);

void BM_LatencyModelBuild(benchmark::State& state) {
  const core::SearchSpace space(
      core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  for (auto _ : state) {
    core::LatencyModel model(space, device,
                             core::LatencyModel::Config{16, 20, 1, true});
    benchmark::DoNotOptimize(model.bias_ms());
  }
}
BENCHMARK(BM_LatencyModelBuild);

void BM_LatencyPredict(benchmark::State& state) {
  const core::SearchSpace space(
      core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  core::LatencyModel model(space, device,
                           core::LatencyModel::Config{16, 20, 1, true});
  util::Rng rng(8);
  const core::Arch arch = core::Arch::random(space, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_ms(arch));
  }
}
BENCHMARK(BM_LatencyPredict);

void BM_DeviceSimulatorNetwork(benchmark::State& state) {
  const core::SearchSpace space(
      core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(hwsim::device_by_name("gv100"));
  util::Rng rng(9);
  const auto net =
      core::lower_network(core::Arch::random(space, rng), space);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.network_latency_ms(net, 32));
  }
}
BENCHMARK(BM_DeviceSimulatorNetwork);

// Console output plus a collected record per run, written as JSON after
// the session (see the file comment for the document shape).
class JsonDumpReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      hsconas::util::Json rec = hsconas::util::Json::object();
      const std::string op =
          slash == std::string::npos ? name : name.substr(0, slash);
      std::string shape =
          slash == std::string::npos ? "" : name.substr(slash + 1);
      // Benchmarks of quantized kernels carry the dtype axis of their key
      // (bench_compare matches on (op, shape, dtype); absent means f32):
      // an "Int8" op, or a "/f32" / "/int8" suffix on the shape.
      std::string dtype = op.find("Int8") != std::string::npos ? "int8" : "f32";
      for (const std::string suffix : {"/f32", "/int8"}) {
        if (shape.size() > suffix.size() &&
            shape.compare(shape.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
          dtype = suffix.substr(1);
          shape.resize(shape.size() - suffix.size());
        }
      }
      rec["op"] = op;
      rec["shape"] = shape;
      rec["dtype"] = dtype;
      rec["ns_per_iter"] = run.GetAdjustedRealTime();  // ns: the unit set below
      const auto items = run.counters.find("items_per_second");
      rec["gflops"] =
          items != run.counters.end() ? items->second.value / 1e9 : 0.0;
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void save(const std::string& path, std::size_t threads) const {
    hsconas::util::Json results = hsconas::util::Json::array();
    for (const auto& r : records_) results.push_back(r);
    hsconas::util::Json doc = hsconas::util::Json::object();
    doc["results"] = std::move(results);
    doc["threads"] = static_cast<double>(threads);
    doc["metrics"] =
        hsconas::obs::metrics_to_json(hsconas::obs::metrics_snapshot());
    doc.save(path);
  }

 private:
  std::vector<hsconas::util::Json> records_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off our --json / --threads flags before google-benchmark sees the
  // arguments. --threads sizes the global pool for the whole session (the
  // in-process BM_GemmThreads sweep overrides it temporarily per run).
  std::string json_path;
  long threads = 0;
  std::vector<char*> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (std::strcmp(*it, "--json") == 0 && it + 1 != args.end()) {
      json_path = *(it + 1);
      it = args.erase(it, it + 2);
    } else if (std::strcmp(*it, "--threads") == 0 && it + 1 != args.end()) {
      threads = std::strtol(*(it + 1), nullptr, 10);
      it = args.erase(it, it + 2);
    } else {
      ++it;
    }
  }
  if (threads > 0) {
    hsconas::util::ThreadPool::configure_global(
        static_cast<std::size_t>(threads));
  }
  register_served_convs();
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonDumpReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    try {
      reporter.save(json_path, hsconas::util::ThreadPool::global().size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_kernels: --json: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
