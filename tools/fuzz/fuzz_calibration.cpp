// Fuzz target: nn::import_calibration — the int8 calibration-table
// reader (activation quantizers + per-channel weight scales) that runs
// against a live model during checkpoint restore.
//
// The harness keeps one small two-conv model and feeds it arbitrary
// payloads through util::ByteReader. Malformed or model-mismatched
// tables must throw hsconas::Error (bounds-checked reads, layer/channel
// validation); a partially-applied import is acceptable state here —
// CheckpointReader's CRC layer rejects torn payloads before this parser
// ever sees them in production, and the fuzzer deliberately bypasses it.

#include <memory>
#include <string>

#include "fuzz/fuzz_common.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "nn/quantize.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serial.h"

namespace {

hsconas::nn::Sequential& model() {
  static std::unique_ptr<hsconas::nn::Sequential> net = [] {
    hsconas::util::Rng rng(20210208);
    auto seq = std::make_unique<hsconas::nn::Sequential>("fuzz_net");
    seq->add(std::make_unique<hsconas::nn::Conv2d>(4, 8, 3, 1, 1, 1, true,
                                                   rng));
    seq->add(std::make_unique<hsconas::nn::ReLU>());
    seq->add(std::make_unique<hsconas::nn::Conv2d>(8, 8, 3, 1, 1, 8, false,
                                                   rng));
    seq->set_mode(hsconas::nn::Mode::kEval);
    return seq;
  }();
  return *net;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string payload(data, data + size);
  try {
    hsconas::util::ByteReader r(payload);
    hsconas::nn::import_calibration(model(), r);
    r.expect_done();
  } catch (const hsconas::Error&) {
    // Truncated streams, wrong layer counts, wrong channel counts:
    // Error is the contract.
  }
  return 0;
}
