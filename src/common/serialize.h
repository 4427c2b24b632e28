#ifndef RESTORE_COMMON_SERIALIZE_H_
#define RESTORE_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace restore {

/// Binary serialization for model persistence (little-endian, fixed-width).
///
/// File framing (WriteChecksummedFile / ReadChecksummedFile):
///   [magic u32][version u32][payload_size u64][payload][fnv1a64(payload)]
/// A reader rejects wrong magic, unsupported versions, truncated payloads,
/// and payloads whose checksum does not match — a corrupted or torn model
/// file fails loudly at open instead of poisoning query answers.

/// FNV-1a 64-bit hash (also used to derive stable per-path model seeds).
uint64_t Fnv1a64(const void* data, size_t size);
inline uint64_t Fnv1a64(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

/// Appends fixed-width little-endian primitives to an in-memory buffer.
class BinaryWriter {
 public:
  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }

  void VecF32(const std::vector<float>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(float));
  }
  void VecF64(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  void VecI32(const std::vector<int32_t>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(int32_t));
  }
  void VecStr(const std::vector<std::string>& v) {
    U64(v.size());
    for (const auto& s : v) Str(s);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  void Raw(const void* data, size_t size) {
    // Empty vectors hand over data() == nullptr; append(nullptr, 0) is UB.
    if (size == 0) return;
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string buffer_;
};

/// Bounds-checked reader over an in-memory payload. Read calls after a
/// failure return zero values; callers check `ok()` once at the end (or
/// whenever a value is about to drive control flow, e.g. a loop bound —
/// element reads validate their byte count against the remaining input
/// before use, so hostile sizes cannot cause huge allocations).
class BinaryReader {
 public:
  explicit BinaryReader(std::string data) : data_(std::move(data)) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int32_t I32() {
    int32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  float F32() {
    float v = 0.0f;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0.0;
    Raw(&v, sizeof(v));
    return v;
  }
  bool Bool() { return U8() != 0; }
  std::string Str() {
    const uint64_t n = U64();
    if (!CheckRemaining(n)) return std::string();
    std::string s(data_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  std::vector<float> VecF32() { return Vec<float>(); }
  std::vector<double> VecF64() { return Vec<double>(); }
  std::vector<int32_t> VecI32() { return Vec<int32_t>(); }
  std::vector<std::string> VecStr() {
    const uint64_t n = U64();
    std::vector<std::string> v;
    if (!CheckRemaining(n)) return v;  // each element takes >= 8 bytes
    v.reserve(n);
    for (uint64_t i = 0; i < n && ok_; ++i) v.push_back(Str());
    return v;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  Status status() const {
    if (ok_) return Status::OK();
    return Status::InvalidArgument("truncated or malformed binary payload");
  }

 private:
  template <typename T>
  std::vector<T> Vec() {
    const uint64_t n = U64();
    std::vector<T> v;
    // Divide, don't multiply: n * sizeof(T) can wrap for a hostile length,
    // which would pass the bounds check and make resize() throw.
    if (!ok_ || n > (data_.size() - pos_) / sizeof(T)) {
      ok_ = false;
      return v;
    }
    v.resize(n);
    Raw(v.data(), n * sizeof(T));
    return v;
  }

  bool CheckRemaining(uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  void Raw(void* out, size_t size) {
    // size == 0 reads come from empty vectors whose data() is nullptr;
    // memcpy/memset with a null destination is UB even at size 0.
    if (size == 0) return;
    if (!CheckRemaining(size)) {
      std::memset(out, 0, size);
      return;
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }

  std::string data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Writes `payload` to `path` under the checksummed framing described above.
Status WriteChecksummedFile(const std::string& path, uint32_t magic,
                            uint32_t version, const std::string& payload);

/// Crash-safe variant: writes the framed payload to `path + ".tmp"`, fsyncs
/// the file, renames it over `path`, and fsyncs the containing directory.
/// A crash at any point leaves either the old file (or nothing) or the
/// complete new file — never a torn one. The checksummed framing catches
/// the remaining failure mode (media corruption) at read time.
Status WriteChecksummedFileAtomic(const std::string& path, uint32_t magic,
                                  uint32_t version,
                                  const std::string& payload);

/// fsyncs a directory so a rename/creation inside it is durable. Best
/// effort on filesystems that reject directory fsync (returns OK there).
Status FsyncDirectory(const std::string& dir);

/// Reads a file written by WriteChecksummedFile; validates magic, version
/// (must be <= max_version), length, and checksum. Returns the payload.
Result<std::string> ReadChecksummedFile(const std::string& path,
                                        uint32_t magic, uint32_t max_version,
                                        uint32_t* version_out = nullptr);

}  // namespace restore

#endif  // RESTORE_COMMON_SERIALIZE_H_
