#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hsconas::hwsim {

/// Numeric format an operator executes in. The dtype scales the activation
/// and weight traffic (4 bytes vs 1) and selects the device's int8 compute
/// throughput (DeviceProfile::int8_speedup) — the two effects that make a
/// quantized network genuinely faster on hardware with a narrow datapath.
enum class DataType {
  kF32,  ///< 32-bit float (the classic path)
  kI8,   ///< 8-bit integer (post-training quantized inference)
};

const char* data_type_name(DataType dtype);

/// Bytes per element of `dtype`.
double data_type_bytes(DataType dtype);

/// Primitive operator kinds the device simulator prices. Composite NAS
/// operators (choice blocks) lower to sequences of these.
enum class OpKind {
  kConv,           ///< dense or grouped convolution
  kDepthwiseConv,  ///< groups == channels (separate: very different AI)
  kLinear,         ///< fully connected
  kPool,           ///< max/avg pooling (memory bound)
  kElementwise,    ///< ReLU / add / BN-inference (memory bound)
  kShuffle,        ///< channel shuffle / split / concat (pure data movement)
};

const char* op_kind_name(OpKind kind);

/// Geometry of one primitive operator instance, per sample (batch applied by
/// the simulator). The same descriptor feeds the FLOPs/params counters and
/// the latency simulator, so every consumer prices exactly the same network.
struct OpDescriptor {
  OpKind kind = OpKind::kConv;
  long in_channels = 0;
  long out_channels = 0;
  long in_h = 0;
  long in_w = 0;
  long kernel = 1;
  long stride = 1;
  long groups = 1;
  long pad = -1;  ///< -1 = same-padding (kernel/2); >= 0 explicit
  DataType dtype = DataType::kF32;

  long out_h() const;
  long out_w() const;

  long effective_pad() const { return pad >= 0 ? pad : kernel / 2; }

  /// Multiply-accumulates per sample.
  double macs() const;
  /// Trainable parameter count (conv/linear weights; 0 for data movement).
  double params() const;
  /// Activation bytes read per sample (scaled by dtype width).
  double input_bytes() const;
  /// Activation bytes written per sample (scaled by dtype width).
  double output_bytes() const;
  /// Weight bytes touched (scaled by dtype width).
  double weight_bytes() const;

  std::string to_string() const;

  // -- convenience constructors --------------------------------------------
  static OpDescriptor conv(long in_ch, long out_ch, long h, long w,
                           long kernel, long stride, long groups = 1);
  static OpDescriptor depthwise(long channels, long h, long w, long kernel,
                                long stride);
  static OpDescriptor linear(long in_features, long out_features);
  static OpDescriptor pool(long channels, long h, long w, long kernel,
                           long stride);
  static OpDescriptor elementwise(long channels, long h, long w);
  static OpDescriptor shuffle(long channels, long h, long w);
};

/// One network "layer" in the sense of the paper's Eq. 2: the unit whose
/// latency is profiled in isolation for the LUT, and between which the
/// communication overhead B accrues on device.
struct LayerDesc {
  std::string name;
  std::vector<OpDescriptor> ops;
  // Output tensor geometry (for inter-layer communication pricing).
  long out_channels = 0;
  long out_h = 0;
  long out_w = 0;
  /// Format of the layer's output tensor (inter-layer hand-off width).
  DataType dtype = DataType::kF32;

  double output_bytes() const {
    return data_type_bytes(dtype) * static_cast<double>(out_channels) *
           static_cast<double>(out_h) * static_cast<double>(out_w);
  }
  double macs() const;
  double params() const;
};

/// A whole network, stem → blocks → head.
using NetworkDesc = std::vector<LayerDesc>;

double network_macs(const NetworkDesc& net);
double network_params(const NetworkDesc& net);

/// Epilogue-fusion post-pass: drops every kElementwise op that directly
/// follows a kConv/kDepthwiseConv whose output geometry it matches,
/// modeling a runtime whose conv kernels apply bias/BN/activation during
/// the C-writeback (a kEvalFused nn::Sequential) instead of in a separate
/// memory pass. Decisions are made against the original op sequence, so
/// a residual-add elementwise sitting behind a fused BN elementwise is
/// preserved. Returns the number of ops removed. MACs are unchanged
/// (elementwise ops price at 0 MACs); activation-byte totals shrink.
std::size_t fuse_conv_epilogues(LayerDesc& layer);
std::size_t fuse_conv_epilogues(NetworkDesc& net);

/// Retarget every op (and the layer output) to `dtype` — the lowering
/// post-pass a quantized architecture applies before pricing. Geometry and
/// MAC counts are untouched; only byte traffic and compute throughput
/// selection change.
void set_layer_dtype(LayerDesc& layer, DataType dtype);
void set_network_dtype(NetworkDesc& net, DataType dtype);

}  // namespace hsconas::hwsim
