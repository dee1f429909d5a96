#include "core/lowering.h"

#include <algorithm>
#include <cmath>

#include "nn/choice_block.h"
#include "nn/mask.h"
#include "util/error.h"
#include "util/string_util.h"

namespace hsconas::core {

using hwsim::LayerDesc;
using hwsim::NetworkDesc;
using hwsim::OpDescriptor;
using nn::BlockKind;

namespace {

void push_conv_bn(LayerDesc& layer, long in_ch, long out_ch, long h, long w,
                  long kernel, long stride, long groups) {
  if (groups == in_ch && in_ch == out_ch) {
    layer.ops.push_back(OpDescriptor::depthwise(in_ch, h, w, kernel, stride));
  } else {
    layer.ops.push_back(
        OpDescriptor::conv(in_ch, out_ch, h, w, kernel, stride, groups));
  }
  const OpDescriptor& conv = layer.ops.back();
  layer.ops.push_back(
      OpDescriptor::elementwise(out_ch, conv.out_h(), conv.out_w()));
}

}  // namespace

LayerDesc lower_layer(const LayerInfo& info, BlockKind kind,
                      double channel_factor) {
  LayerDesc layer;
  layer.name = util::format("layer%d.%s", info.index,
                            nn::block_kind_name(kind));
  const long h = info.in_h, w = info.in_w;
  const long out_h = (info.stride == 2) ? (h + 1) / 2 : h;
  const long out_w = (info.stride == 2) ? (w + 1) / 2 : w;
  layer.out_channels = info.out_channels;
  layer.out_h = out_h;
  layer.out_w = out_w;

  if (kind == BlockKind::kSkip) {
    if (info.stride == 1) return layer;  // pure identity: zero kernels
    // Reduction skip: minimal projection branch on the full input.
    push_conv_bn(layer, info.in_channels, info.in_channels, h, w, 3, 2,
                 info.in_channels);
    push_conv_bn(layer, info.in_channels, info.out_channels, out_h, out_w, 1,
                 1, 1);
    return layer;
  }

  const long branch_out = info.out_channels / 2;
  const long mid = nn::scaled_channels(branch_out, channel_factor);
  const long kernel = nn::block_kernel(kind);

  if (info.stride == 1) {
    const long branch_in = info.in_channels / 2;
    if (kind == BlockKind::kXception) {
      push_conv_bn(layer, branch_in, branch_in, h, w, 3, 1, branch_in);
      push_conv_bn(layer, branch_in, mid, h, w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, h, w, 3, 1, mid);
      push_conv_bn(layer, mid, mid, h, w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, h, w, 3, 1, mid);
      push_conv_bn(layer, mid, branch_out, h, w, 1, 1, 1);
    } else {
      push_conv_bn(layer, branch_in, mid, h, w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, h, w, kernel, 1, mid);
      push_conv_bn(layer, mid, branch_out, h, w, 1, 1, 1);
    }
  } else {
    // Main branch.
    if (kind == BlockKind::kXception) {
      push_conv_bn(layer, info.in_channels, info.in_channels, h, w, 3, 2,
                   info.in_channels);
      push_conv_bn(layer, info.in_channels, mid, out_h, out_w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, out_h, out_w, 3, 1, mid);
      push_conv_bn(layer, mid, mid, out_h, out_w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, out_h, out_w, 3, 1, mid);
      push_conv_bn(layer, mid, branch_out, out_h, out_w, 1, 1, 1);
    } else {
      push_conv_bn(layer, info.in_channels, mid, h, w, 1, 1, 1);
      push_conv_bn(layer, mid, mid, h, w, kernel, 2, mid);
      push_conv_bn(layer, mid, branch_out, out_h, out_w, 1, 1, 1);
    }
    // Projection branch.
    push_conv_bn(layer, info.in_channels, info.in_channels, h, w, 3, 2,
                 info.in_channels);
    push_conv_bn(layer, info.in_channels, branch_out, out_h, out_w, 1, 1, 1);
  }

  layer.ops.push_back(
      OpDescriptor::shuffle(info.out_channels, out_h, out_w));
  return layer;
}

namespace {

/// MBConv family lowering — mirrors nn::MbConvChoiceBlock op for op.
LayerDesc lower_mbconv_layer(const LayerInfo& info, double expansion,
                             long kernel, double channel_factor) {
  LayerDesc layer;
  const long h = info.in_h, w = info.in_w;
  const long out_h = (info.stride == 2) ? (h + 1) / 2 : h;
  const long out_w = (info.stride == 2) ? (w + 1) / 2 : w;
  layer.out_channels = info.out_channels;
  layer.out_h = out_h;
  layer.out_w = out_w;

  if (expansion <= 0.0) {  // skip
    layer.name = util::format("layer%d.skip", info.index);
    if (info.stride == 1) return layer;
    push_conv_bn(layer, info.in_channels, info.in_channels, h, w, 3, 2,
                 info.in_channels);
    push_conv_bn(layer, info.in_channels, info.out_channels, out_h, out_w, 1,
                 1, 1);
    return layer;
  }

  const long mid_max = std::max<long>(
      1, static_cast<long>(std::llround(
             expansion * static_cast<double>(info.in_channels))));
  const long mid = nn::scaled_channels(mid_max, channel_factor);
  layer.name = util::format("layer%d.mb_e%.0fk%ld", info.index, expansion,
                            kernel);
  push_conv_bn(layer, info.in_channels, mid, h, w, 1, 1, 1);
  push_conv_bn(layer, mid, mid, h, w, kernel, info.stride, mid);
  push_conv_bn(layer, mid, info.out_channels, out_h, out_w, 1, 1, 1);
  if (info.stride == 1 && info.in_channels == info.out_channels) {
    layer.ops.push_back(
        OpDescriptor::elementwise(info.out_channels, out_h, out_w));
  }
  return layer;
}

}  // namespace

LayerDesc lower_layer(const LayerInfo& info, nn::OpFamily family, int op,
                      double channel_factor) {
  switch (family) {
    case nn::OpFamily::kShuffleV2:
      return lower_layer(info, static_cast<nn::BlockKind>(op),
                         channel_factor);
    case nn::OpFamily::kMbConv: {
      const nn::MbConvShape shape = nn::mbconv_op_shape(op);
      return lower_mbconv_layer(info, shape.expansion, shape.kernel,
                                channel_factor);
    }
  }
  throw InvalidArgument("lower_layer: unknown family");
}

LayerDesc lower_stem(const SearchSpaceConfig& config) {
  LayerDesc stem;
  stem.name = "stem";
  const long stride = config.stem_stride2 ? 2 : 1;
  push_conv_bn(stem, config.input_channels, config.stem_channels,
               config.input_size, config.input_size, 3, stride, 1);
  const OpDescriptor& conv = stem.ops.front();
  stem.out_channels = config.stem_channels;
  stem.out_h = conv.out_h();
  stem.out_w = conv.out_w();
  return stem;
}

LayerDesc lower_head(const SearchSpaceConfig& config, long body_out_size) {
  LayerDesc head;
  head.name = "head";
  const long in_ch = config.stage_channels.back();
  push_conv_bn(head, in_ch, config.head_channels, body_out_size,
               body_out_size, 1, 1, 1);
  // Global average pool to 1×1 (explicit zero padding).
  OpDescriptor gap = OpDescriptor::pool(config.head_channels, body_out_size,
                                        body_out_size, body_out_size,
                                        body_out_size);
  gap.pad = 0;
  head.ops.push_back(gap);
  head.ops.push_back(
      OpDescriptor::linear(config.head_channels, config.num_classes));
  head.out_channels = config.num_classes;
  head.out_h = 1;
  head.out_w = 1;
  return head;
}

NetworkDesc lower_network(const Arch& arch, const SearchSpace& space,
                          const LoweringOptions& opts) {
  NetworkDesc net = lower_network(arch, space);
  if (opts.fuse_conv_epilogues) hwsim::fuse_conv_epilogues(net);
  if (opts.dtype != hwsim::DataType::kF32) {
    hwsim::set_network_dtype(net, opts.dtype);
  }
  return net;
}

NetworkDesc lower_network(const Arch& arch, const SearchSpace& space) {
  arch.validate(space);
  NetworkDesc net;
  net.reserve(static_cast<std::size_t>(space.num_layers()) + 2);
  net.push_back(lower_stem(space.config()));

  long size = space.body_input_size();
  for (int l = 0; l < space.num_layers(); ++l) {
    const LayerInfo& info = space.layer(l);
    HSCONAS_CHECK_MSG(info.in_h == size, "lower_network: geometry drift");
    const double factor = space.config().channel_factors.at(
        static_cast<std::size_t>(arch.factors[static_cast<std::size_t>(l)]));
    net.push_back(lower_layer(info, space.config().family,
                              arch.ops[static_cast<std::size_t>(l)], factor));
    if (info.stride == 2) size = (size + 1) / 2;
  }

  net.push_back(lower_head(space.config(), size));
  // The quant gene applies network-wide: the whole graph (stem and head
  // included) runs int8, matching the nn-layer calibration which quantizes
  // every conv/linear. MAC counters are dtype-invariant, so arch_macs /
  // arch_params are unchanged by this.
  if (arch.quant != 0) {
    hwsim::set_network_dtype(net, hwsim::DataType::kI8);
  }
  return net;
}

double arch_macs(const Arch& arch, const SearchSpace& space) {
  return hwsim::network_macs(lower_network(arch, space));
}

double arch_params(const Arch& arch, const SearchSpace& space) {
  return hwsim::network_params(lower_network(arch, space));
}

}  // namespace hsconas::core
