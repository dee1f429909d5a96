#include "core/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "nn/quantize.h"
#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"
#include "util/error.h"

namespace hsconas::core {

namespace {

constexpr char kMagic[4] = {'H', 'S', 'C', 'K'};
constexpr std::size_t kMaxSectionName = 256;
constexpr std::size_t kMaxSections = 1024;
constexpr std::size_t kMaxParamName = 4096;
constexpr std::size_t kMaxParamDims = 8;

obs::Counter& save_counter() {
  static obs::Counter& c = obs::counter("hsconas.checkpoint.saves");
  return c;
}
obs::Counter& load_counter() {
  static obs::Counter& c = obs::counter("hsconas.checkpoint.loads");
  return c;
}
obs::Counter& load_failure_counter() {
  static obs::Counter& c = obs::counter("hsconas.checkpoint.load_failures");
  return c;
}
obs::Counter& bytes_written_counter() {
  static obs::Counter& c = obs::counter("hsconas.checkpoint.bytes_written");
  return c;
}
obs::Histogram& save_histogram() {
  static obs::Histogram& h = obs::histogram("hsconas.checkpoint.save_ms");
  return h;
}
obs::Histogram& load_histogram() {
  static obs::Histogram& h = obs::histogram("hsconas.checkpoint.load_ms");
  return h;
}

/// Section CRC seed. Version 3 folds the header's version field into every
/// section CRC: the version byte itself is not CRC-protected, and with two
/// accepted versions a bit flip between them (3 ↔ 2) would otherwise parse
/// cleanly — seeding the CRCs with the version makes any such flip fail
/// every section check. Version 2 files keep their original unseeded CRCs.
std::uint32_t crc_seed(std::uint32_t version) {
  if (version < 3) return 0;
  unsigned char v[4] = {static_cast<unsigned char>(version & 0xff),
                        static_cast<unsigned char>((version >> 8) & 0xff),
                        static_cast<unsigned char>((version >> 16) & 0xff),
                        static_cast<unsigned char>((version >> 24) & 0xff)};
  return util::crc32(v, sizeof(v));
}

/// RAII FILE handle so error paths cannot leak the descriptor.
struct File {
  std::FILE* f = nullptr;
  explicit File(std::FILE* handle) : f(handle) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  /// Close eagerly (flushing libc buffers); returns false on failure.
  bool close() {
    std::FILE* h = f;
    f = nullptr;
    return std::fclose(h) == 0;
  }
};

}  // namespace

void CheckpointWriter::add_section(const std::string& name,
                                   std::string payload) {
  if (name.empty() || name.size() > kMaxSectionName) {
    throw InvalidArgument("checkpoint: bad section name '" + name + "'");
  }
  sections_[name] = std::move(payload);
}

void CheckpointWriter::save(const std::string& path) const {
  HSCONAS_TRACE_SCOPE("checkpoint.save");
  const std::uint64_t t0 = obs::monotonic_ns();
  if (sections_.size() > kMaxSections) {
    throw InvalidArgument("checkpoint: too many sections");
  }

  util::ByteWriter image;
  image.bytes(kMagic, sizeof(kMagic));
  image.u32(kCheckpointVersion);
  image.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    image.str(name);
    image.u64(payload.size());
    const std::uint32_t crc = util::crc32(
        payload.data(), payload.size(),
        util::crc32(name.data(), name.size(),
                    crc_seed(kCheckpointVersion)));
    image.u32(crc);
    image.bytes(payload.data(), payload.size());
  }

  const std::string tmp = path + ".tmp";
  {
    File out(std::fopen(tmp.c_str(), "wb"));
    if (out.f == nullptr) {
      throw Error("checkpoint: cannot open " + tmp + " for writing");
    }
    const std::string& buf = image.data();
    const bool ok =
        std::fwrite(buf.data(), 1, buf.size(), out.f) == buf.size() &&
        std::fflush(out.f) == 0;
#if defined(__unix__) || defined(__APPLE__)
    // Push the data to the device before the rename makes it the live
    // checkpoint; otherwise a power loss could publish an empty file.
    const bool synced = ok && ::fsync(::fileno(out.f)) == 0;
#else
    const bool synced = ok;
#endif
    if (!synced || !out.close()) {
      std::remove(tmp.c_str());
      throw Error("checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: rename " + tmp + " -> " + path + " failed");
  }
  save_counter().add();
  bytes_written_counter().add(image.size());
  save_histogram().record(
      static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
}

std::map<std::string, std::string> parse_checkpoint_image(
    const std::string& image) {
  std::map<std::string, std::string> sections;
  util::ByteReader r(image);
  char magic[4];
  r.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw Error("bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version < kMinCheckpointVersion || version > kCheckpointVersion) {
    throw Error("unsupported version " + std::to_string(version));
  }
  const std::uint32_t count = r.u32();
  if (count > kMaxSections) {
    throw Error("section count " + std::to_string(count) + " too large");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str(kMaxSectionName);
    if (name.empty()) throw Error("empty section name");
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    if (size > r.remaining()) {
      throw Error("section '" + name + "' exceeds file size");
    }
    std::string payload(static_cast<std::size_t>(size), '\0');
    r.bytes(payload.data(), payload.size());
    const std::uint32_t actual = util::crc32(
        payload.data(), payload.size(),
        util::crc32(name.data(), name.size(), crc_seed(version)));
    if (actual != crc) {
      throw Error("CRC mismatch in section '" + name + "'");
    }
    if (!sections.emplace(name, std::move(payload)).second) {
      throw Error("duplicate section '" + name + "'");
    }
  }
  r.expect_done();
  return sections;
}

CheckpointReader::CheckpointReader(const std::string& path) : path_(path) {
  HSCONAS_TRACE_SCOPE("checkpoint.load");
  const std::uint64_t t0 = obs::monotonic_ns();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    load_failure_counter().add();
    throw Error("checkpoint: cannot open " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();

  try {
    sections_ = parse_checkpoint_image(os.str());
  } catch (const Error& e) {
    load_failure_counter().add();
    throw Error("checkpoint: " + std::string(e.what()) + " in " + path);
  }
  load_counter().add();
  load_histogram().record(
      static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
}

bool CheckpointReader::has(const std::string& name) const {
  return sections_.count(name) != 0;
}

const std::string& CheckpointReader::section(const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw Error("checkpoint: missing section '" + name + "' in " + path_);
  }
  return it->second;
}

std::vector<std::string> CheckpointReader::names() const {
  std::vector<std::string> out;
  out.reserve(sections_.size());
  for (const auto& [name, payload] : sections_) out.push_back(name);
  return out;
}

std::string write_parameters_payload(
    const std::vector<nn::Parameter*>& params) {
  util::ByteWriter out;
  out.u64(params.size());
  for (const nn::Parameter* p : params) {
    HSCONAS_CHECK_MSG(p != nullptr, "write_parameters_payload: null param");
    out.str(p->name);
    const auto& shape = p->value.shape();
    out.u32(static_cast<std::uint32_t>(shape.size()));
    for (long d : shape) out.i64(d);
    out.vec_f32(p->value.data(),
                static_cast<std::size_t>(p->value.numel()));
  }
  return out.take();
}

void read_parameters_payload(const std::vector<nn::Parameter*>& params,
                             util::ByteReader& in) {
  const std::uint64_t count = in.u64();
  if (count != params.size()) {
    throw Error("checkpoint: file has " + std::to_string(count) +
                " parameters, model expects " +
                std::to_string(params.size()));
  }

  std::map<std::string, nn::Parameter*> by_name;
  for (nn::Parameter* p : params) {
    HSCONAS_CHECK_MSG(p != nullptr, "read_parameters_payload: null param");
    if (!by_name.emplace(p->name, p).second) {
      throw Error("checkpoint: duplicate parameter name '" + p->name + "'");
    }
  }

  for (std::uint64_t i = 0; i < count; ++i) {
    // str() and the dim cap bound every size before it is allocated, so a
    // corrupt header fails cleanly instead of requesting gigabytes.
    const std::string name = in.str(kMaxParamName);
    const std::uint32_t ndim = in.u32();
    if (ndim > kMaxParamDims) {
      throw Error("checkpoint: parameter '" + name + "' claims " +
                  std::to_string(ndim) + " dimensions");
    }
    std::vector<long> shape(ndim);
    for (auto& d : shape) d = static_cast<long>(in.i64());

    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw Error("checkpoint: unexpected parameter '" + name + "'");
    }
    nn::Parameter* p = it->second;
    if (p->value.shape() != shape) {
      throw Error("checkpoint: shape mismatch for '" + name + "'");
    }
    in.vec_f32_into(p->value.data(),
                    static_cast<std::size_t>(p->value.numel()));
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw Error("checkpoint: parameter '" + by_name.begin()->first +
                "' missing from file");
  }
}

void save_parameters(const std::vector<nn::Parameter*>& params,
                     const std::string& path) {
  CheckpointWriter writer;
  writer.add_section("params", write_parameters_payload(params));
  writer.save(path);
}

void load_parameters(const std::vector<nn::Parameter*>& params,
                     const std::string& path) {
  const CheckpointReader reader(path);
  util::ByteReader in(reader.section("params"));
  read_parameters_payload(params, in);
  in.expect_done();
}

std::string write_calibration_payload(nn::Module& root) {
  util::ByteWriter out;
  nn::export_calibration(root, out);
  return out.take();
}

void read_calibration_payload(nn::Module& root, const std::string& payload) {
  util::ByteReader in(payload);
  nn::import_calibration(root, in);
  in.expect_done();
}

}  // namespace hsconas::core
