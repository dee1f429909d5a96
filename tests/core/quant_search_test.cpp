// Search-core coverage of the int8 quantization axis: the Arch::quant gene,
// dtype-aware hwsim pricing, the latency model's dual LUT, EA/Pareto gene
// handling, the calibration section of the v3 checkpoint container, and
// Supernet::calibrate_quant's eval-mode contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/accuracy_surrogate.h"
#include "core/checkpoint.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/lowering.h"
#include "core/pareto.h"
#include "core/supernet.h"
#include "hwsim/registry.h"
#include "nn/conv2d.h"
#include "nn/quantize.h"
#include "util/error.h"
#include "util/serial.h"

namespace hsconas::core {
namespace {

SearchSpaceConfig quant_proxy_config() {
  SearchSpaceConfig config = SearchSpaceConfig::proxy();
  config.search_quantization = true;
  return config;
}

/// Full ImageNet-scale space for the accuracy-sensitive tests: proxy archs
/// are so small the surrogate clamps at its 95% error ceiling, flattening
/// the accuracy axis the EA / Pareto assertions depend on.
SearchSpaceConfig quant_imagenet_config() {
  SearchSpaceConfig config = SearchSpaceConfig::imagenet_layout_a();
  config.search_quantization = true;
  return config;
}

struct QuantFixture {
  SearchSpace space{quant_proxy_config()};
  hwsim::DeviceSimulator device{hwsim::device_by_name("xavier")};

  LatencyModel make_model(int bias_samples = 10) {
    LatencyModel::Config cfg;
    cfg.batch = 4;
    cfg.bias_samples = bias_samples;
    cfg.seed = 11;
    return LatencyModel(space, device, cfg);
  }
};

TEST(ArchQuantGene, StringAndJsonRoundTrip) {
  QuantFixture f;
  util::Rng rng(7);
  Arch arch = Arch::random(f.space, rng);
  arch.quant = 1;

  const std::string s = arch.to_string(f.space);
  EXPECT_EQ(s.rfind("int8:: ", 0), 0u) << s;
  const Arch back = Arch::from_string(f.space, s);
  EXPECT_EQ(back, arch);

  Arch fp32 = arch;
  fp32.quant = 0;
  const std::string s32 = fp32.to_string(f.space);
  EXPECT_EQ(s32.find("int8"), std::string::npos);
  EXPECT_EQ(Arch::from_string(f.space, s32), fp32);

  EXPECT_EQ(arch.to_json(f.space)["dtype"].as_string(), "int8");
  EXPECT_EQ(fp32.to_json(f.space)["dtype"].as_string(), "f32");
}

TEST(ArchQuantGene, HashSeparatesDtypesAndPreservesFp32) {
  QuantFixture f;
  util::Rng rng(3);
  Arch arch = Arch::random(f.space, rng);
  arch.quant = 0;
  Arch int8 = arch;
  int8.quant = 1;
  EXPECT_NE(arch.hash(), int8.hash());

  // quant == 0 must hash identically to an arch that never had the gene
  // touched — dedup sets and surrogate residuals of fp32 archs are stable
  // across the quantization feature's introduction.
  Arch untouched;
  untouched.ops = arch.ops;
  untouched.factors = arch.factors;
  EXPECT_EQ(arch.hash(), untouched.hash());
}

TEST(ArchQuantGene, ValidateBoundsAndInSpaceGating) {
  QuantFixture f;
  SearchSpace plain(SearchSpaceConfig::proxy());
  util::Rng rng(5);
  Arch arch = Arch::random(plain, rng);
  EXPECT_EQ(arch.quant, 0);

  arch.quant = 2;
  EXPECT_THROW(arch.validate(plain), InvalidArgument);
  arch.quant = 1;
  EXPECT_NO_THROW(arch.validate(plain));  // representable anywhere...
  EXPECT_FALSE(arch.in_space(plain));     // ...but outside a classic space
  EXPECT_TRUE(arch.in_space(f.space));
}

TEST(ArchQuantGene, RandomDrawsGeneOnlyWhenEnabled) {
  SearchSpace plain(SearchSpaceConfig::proxy());
  QuantFixture f;

  util::Rng rng_plain(42);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(Arch::random(plain, rng_plain).quant, 0);
  }

  util::Rng rng_quant(42);
  int int8_count = 0;
  for (int i = 0; i < 40; ++i) {
    int8_count += Arch::random(f.space, rng_quant).quant;
  }
  EXPECT_GT(int8_count, 5);
  EXPECT_LT(int8_count, 35);

  // The gene is drawn *after* the per-layer genes, so the first sample's
  // layer genes agree across the two spaces under the same seed.
  util::Rng a(99), b(99);
  const Arch from_plain = Arch::random(plain, a);
  const Arch from_quant = Arch::random(f.space, b);
  EXPECT_EQ(from_plain.ops, from_quant.ops);
  EXPECT_EQ(from_plain.factors, from_quant.factors);
}

TEST(HwsimDtype, Int8ShrinksBytesNotMacs) {
  hwsim::OpDescriptor conv =
      hwsim::OpDescriptor::conv(32, 64, 14, 14, 3, 1);
  hwsim::OpDescriptor conv_i8 = conv;
  conv_i8.dtype = hwsim::DataType::kI8;

  EXPECT_DOUBLE_EQ(conv.macs(), conv_i8.macs());
  EXPECT_DOUBLE_EQ(conv.params(), conv_i8.params());
  EXPECT_DOUBLE_EQ(conv.input_bytes(), 4.0 * conv_i8.input_bytes());
  EXPECT_DOUBLE_EQ(conv.output_bytes(), 4.0 * conv_i8.output_bytes());
  EXPECT_DOUBLE_EQ(conv.weight_bytes(), 4.0 * conv_i8.weight_bytes());
  EXPECT_NE(conv_i8.to_string().find("int8"), std::string::npos);
}

TEST(HwsimDtype, DeviceSimulatorPricesInt8Faster) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("gv100"));
  hwsim::OpDescriptor conv =
      hwsim::OpDescriptor::conv(256, 256, 56, 56, 3, 1);
  hwsim::OpDescriptor conv_i8 = conv;
  conv_i8.dtype = hwsim::DataType::kI8;
  EXPECT_LT(device.op_latency_ms(conv_i8, 32),
            device.op_latency_ms(conv, 32));
}

TEST(HwsimDtype, LoweredQuantArchCarriesInt8Descriptors) {
  QuantFixture f;
  util::Rng rng(13);
  Arch arch = Arch::random(f.space, rng);
  arch.quant = 1;
  const hwsim::NetworkDesc net = lower_network(arch, f.space);
  for (const hwsim::LayerDesc& layer : net) {
    EXPECT_EQ(layer.dtype, hwsim::DataType::kI8);
    for (const hwsim::OpDescriptor& op : layer.ops) {
      EXPECT_EQ(op.dtype, hwsim::DataType::kI8);
    }
  }
  arch.quant = 0;
  const hwsim::NetworkDesc net32 = lower_network(arch, f.space);
  for (const hwsim::LayerDesc& layer : net32) {
    EXPECT_EQ(layer.dtype, hwsim::DataType::kF32);
  }
  // MAC counters are dtype-invariant.
  arch.quant = 1;
  EXPECT_DOUBLE_EQ(arch_macs(arch, f.space),
                   hwsim::network_macs(net32));
}

TEST(LatencyModelQuant, Int8LutIsUniformlyCheaper) {
  QuantFixture f;
  const LatencyModel model = f.make_model();
  ASSERT_TRUE(model.quantized());
  const int K = f.space.config().num_ops;
  const int F =
      static_cast<int>(f.space.config().channel_factors.size());
  for (int l = 0; l < f.space.num_layers(); ++l) {
    for (int op = 0; op < K; ++op) {
      for (int c = 0; c < F; ++c) {
        EXPECT_LE(model.lut_i8_ms(l, op, c), model.lut_ms(l, op, c));
      }
    }
  }
}

TEST(LatencyModelQuant, QuantGeneLowersPrediction) {
  QuantFixture f;
  const LatencyModel model = f.make_model();
  util::Rng rng(21);
  for (int i = 0; i < 10; ++i) {
    Arch arch = Arch::random(f.space, rng);
    arch.quant = 0;
    const double f32_ms = model.predict_ms(arch);
    arch.quant = 1;
    const double i8_ms = model.predict_ms(arch);
    EXPECT_LT(i8_ms, f32_ms);
    // Ground truth agrees: the simulator prices the lowered int8 net.
    EXPECT_LT(model.true_ms(arch), [&] {
      Arch fp = arch;
      fp.quant = 0;
      return model.true_ms(fp);
    }());
  }
}

TEST(LatencyModelQuant, ClassicModelRejectsInt8Archs) {
  SearchSpace plain(SearchSpaceConfig::proxy());
  hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  LatencyModel::Config cfg;
  cfg.batch = 4;
  cfg.bias_samples = 5;
  LatencyModel model(plain, device, cfg);
  EXPECT_FALSE(model.quantized());
  util::Rng rng(2);
  Arch arch = Arch::random(plain, rng);
  arch.quant = 1;
  EXPECT_THROW(model.predict_ms(arch), Error);
  EXPECT_THROW(model.lut_i8_ms(0, 0, 0), Error);
}

TEST(LatencyModelQuant, ExportRestoreRoundTripsBothLuts) {
  QuantFixture f;
  LatencyModel::Config cfg;
  cfg.batch = 4;
  cfg.bias_samples = 10;
  cfg.seed = 11;
  LatencyModel model(f.space, f.device, cfg);

  util::ByteWriter out;
  model.export_state(out);
  util::ByteReader in(out.data());
  const auto restored = LatencyModel::restore(f.space, f.device, cfg, in);
  in.expect_done();

  ASSERT_TRUE(restored->quantized());
  util::Rng rng(17);
  for (int i = 0; i < 8; ++i) {
    Arch arch = Arch::random(f.space, rng);
    EXPECT_DOUBLE_EQ(model.predict_ms(arch), restored->predict_ms(arch));
    arch.quant ^= 1;
    EXPECT_DOUBLE_EQ(model.predict_ms(arch), restored->predict_ms(arch));
  }
}

TEST(LatencyModelQuant, RestoreRejectsQuantMismatch) {
  QuantFixture f;
  LatencyModel::Config cfg;
  cfg.batch = 4;
  cfg.bias_samples = 5;
  cfg.seed = 11;
  const LatencyModel model = f.make_model(5);
  util::ByteWriter out;
  model.export_state(out);

  SearchSpace plain(SearchSpaceConfig::proxy());
  util::ByteReader in(out.data());
  EXPECT_THROW(LatencyModel::restore(plain, f.device, cfg, in), Error);
}

TEST(SurrogateQuant, Int8CostsAccuracy) {
  SearchSpace space(quant_imagenet_config());
  const AccuracySurrogate surrogate(space);
  util::Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    Arch arch = Arch::random(space, rng);
    arch.quant = 0;
    const double acc32 = surrogate.accuracy(arch);
    arch.quant = 1;
    // The residual noise is re-seeded by the (different) int8 hash, so
    // compare against drop ± 2 * noise envelope rather than exactly.
    EXPECT_LT(surrogate.accuracy(arch), acc32);
  }
}

AccuracyFn surrogate_fn(const AccuracySurrogate& s) {
  return score_each([&s](const Arch& arch) { return s.accuracy(arch); });
}

TEST(EvolutionQuant, SearchesBothDtypesAndResumesExactly) {
  SearchSpace f_space(quant_imagenet_config());
  hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  LatencyModel::Config lat_cfg;
  lat_cfg.batch = 4;
  lat_cfg.bias_samples = 10;
  lat_cfg.seed = 11;
  const LatencyModel model(f_space, device, lat_cfg);
  const AccuracySurrogate surrogate(f_space);
  // Anchor the latency constraint at a real operating point of this space
  // so neither dtype is trivially dominant.
  util::Rng probe(1);
  const Objective objective{-0.3,
                            model.predict_ms(Arch::random(f_space, probe))};
  EvolutionSearch::Config cfg;
  cfg.generations = 4;
  cfg.population = 16;
  cfg.parents = 6;
  cfg.seed = 77;

  EvolutionSearch search(f_space, surrogate_fn(surrogate), model,
                         objective, cfg);
  const auto result = search.run();

  int evaluated_i8 = 0;
  for (const auto& c : result.evaluated) evaluated_i8 += c.arch.quant;
  EXPECT_GT(evaluated_i8, 0);
  EXPECT_LT(evaluated_i8, static_cast<int>(result.evaluated.size()));

  // Interrupt/resume: export after generation 1, import into a fresh
  // search, finish — bit-identical winner and trajectory.
  EvolutionSearch first(f_space, surrogate_fn(surrogate), model, objective,
                        cfg);
  util::ByteWriter snapshot;
  bool exported = false;
  first.run([&](int generation) {
    if (generation == 1 && !exported) {
      first.export_state(snapshot);
      exported = true;
    }
  });
  ASSERT_TRUE(exported);

  EvolutionSearch resumed(f_space, surrogate_fn(surrogate), model,
                          objective, cfg);
  util::ByteReader in(snapshot.data());
  resumed.import_state(in);
  in.expect_done();
  const auto resumed_result = resumed.run();
  EXPECT_EQ(resumed_result.best.arch, result.best.arch);
  EXPECT_DOUBLE_EQ(resumed_result.best.score, result.best.score);
}

TEST(ParetoQuant, FrontMixesDtypesWithInt8Cheaper) {
  SearchSpace space(quant_imagenet_config());
  hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  LatencyModel::Config lat_cfg;
  lat_cfg.batch = 4;
  lat_cfg.bias_samples = 10;
  lat_cfg.seed = 11;
  const LatencyModel model(space, device, lat_cfg);
  const AccuracySurrogate surrogate(space);

  ParetoSearch::Config cfg;
  cfg.generations = 6;
  cfg.population = 24;
  cfg.seed = 5150;
  ParetoSearch search(space, surrogate_fn(surrogate), model, cfg);
  const auto result = search.run();

  ASSERT_GE(result.front.size(), 2u);
  int front_i8 = 0;
  for (const auto& c : result.front) {
    front_i8 += c.arch.quant;
    // Every front member's int8 twin is strictly cheaper in latency —
    // the axis the EA exploits.
    Arch twin = c.arch;
    twin.quant = 1;
    Arch fp = c.arch;
    fp.quant = 0;
    EXPECT_LT(model.predict_ms(twin), model.predict_ms(fp));
  }
  // The low-latency end of a mixed front is int8 territory.
  EXPECT_GT(front_i8, 0);
  EXPECT_EQ(result.front.front().arch.quant, 1);
}

TEST(CheckpointQuant, WriterEmitsV3ReaderAcceptsV2) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hsconas_quant_ckpt")
          .string();
  std::filesystem::create_directories(dir);
  const std::string v3_path = dir + "/v3.ckpt";
  const std::string v2_path = dir + "/v2.ckpt";

  CheckpointWriter writer;
  writer.add_section("payload", std::string("hello"));
  writer.save(v3_path);

  {
    std::ifstream in(v3_path, std::ios::binary);
    std::string file((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    util::ByteReader r(file);
    char magic[4];
    r.bytes(magic, sizeof(magic));
    EXPECT_EQ(r.u32(), 3u);
  }
  EXPECT_EQ(CheckpointReader(v3_path).section("payload"), "hello");

  // Hand-build a version-2 image (unseeded CRCs, the PR-3 format): the
  // reader must still accept it.
  {
    util::ByteWriter image;
    image.bytes("HSCK", 4);
    image.u32(2);
    image.u32(1);
    const std::string name = "payload";
    const std::string payload = "legacy";
    image.str(name);
    image.u64(payload.size());
    image.u32(util::crc32(payload.data(), payload.size(),
                          util::crc32(name.data(), name.size())));
    image.bytes(payload.data(), payload.size());
    std::ofstream out(v2_path, std::ios::binary);
    out.write(image.data().data(),
              static_cast<std::streamsize>(image.data().size()));
  }
  EXPECT_EQ(CheckpointReader(v2_path).section("payload"), "legacy");

  // A v3 file whose version byte is flipped to 2 must fail its CRCs.
  {
    std::ifstream in(v3_path, std::ios::binary);
    std::string file((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    file[4] = 2;
    const std::string mangled = dir + "/mangled.ckpt";
    std::ofstream out(mangled, std::ios::binary);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.close();
    EXPECT_THROW(CheckpointReader{mangled}, Error);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckpointQuant, CalibrationSectionRoundTripsThroughContainer) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hsconas_quant_calib")
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.ckpt";

  util::Rng rng(7);
  nn::Conv2d conv(8, 12, 3, 1, 1, 1, true, rng, "conv");
  conv.set_mode(nn::Mode::kEval);
  const tensor::Tensor batch = tensor::Tensor::normal({2, 8, 9, 9}, 0.0f,
                                                      1.0f, rng);
  ASSERT_EQ(nn::calibrate(conv, {batch}), 1u);

  const tensor::Tensor y_ref = conv.forward(batch);

  // Persist params + calibration as sections of one container.
  std::vector<nn::Parameter*> params;
  conv.collect_params(params);
  CheckpointWriter writer;
  writer.add_section("params", write_parameters_payload(params));
  writer.add_section(kCalibrationSection, write_calibration_payload(conv));
  writer.save(path);

  // A fresh model restored from the container reproduces the quantized
  // outputs bit-exactly — weights are re-quantized from the stored scales.
  util::Rng rng2(1234);
  nn::Conv2d restored(8, 12, 3, 1, 1, 1, true, rng2, "conv");
  restored.set_mode(nn::Mode::kEval);
  std::vector<nn::Parameter*> restored_params;
  restored.collect_params(restored_params);
  const CheckpointReader reader(path);
  ASSERT_TRUE(reader.has(kCalibrationSection));
  util::ByteReader pin(reader.section("params"));
  read_parameters_payload(restored_params, pin);
  pin.expect_done();
  read_calibration_payload(restored, reader.section(kCalibrationSection));

  const tensor::Tensor y_restored = restored.forward(batch);

  ASSERT_EQ(y_restored.numel(), y_ref.numel());
  for (long i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(y_restored.data()[i], y_ref.data()[i]) << "i=" << i;
  }
  std::filesystem::remove_all(dir);
}

// Calibration runs in the eval flavour the network serves in, so it is
// refused outside an eval mode, keeps kEvalFused, and leaves the frozen
// layers computing int8.
TEST(SupernetQuant, CalibratesInTheEvalModeItServesIn) {
  const SearchSpace space(SearchSpaceConfig::proxy());
  util::Rng rng(5);
  Supernet net(space, 9, Arch::random(space, rng));
  const SearchSpaceConfig& sc = space.config();
  const tensor::Tensor batch = tensor::Tensor::uniform(
      {2, sc.input_channels, sc.input_size, sc.input_size}, -1.0f, 1.0f,
      rng);
  EXPECT_THROW(net.calibrate_quant({batch}), Error);  // still in kTrain

  net.set_mode(nn::Mode::kEvalFused);
  const tensor::Tensor fp32 = net.forward(batch);
  EXPECT_GT(net.calibrate_quant({batch}), 0u);
  EXPECT_EQ(nn::Mode::kEvalFused, net.mode());
  const tensor::Tensor int8 = net.forward(batch);
  ASSERT_EQ(fp32.numel(), int8.numel());
  EXPECT_NE(0, std::memcmp(fp32.data(), int8.data(),
                           static_cast<std::size_t>(fp32.numel()) *
                               sizeof(float)))
      << "calibrated layers should compute int8";
}

}  // namespace
}  // namespace hsconas::core
