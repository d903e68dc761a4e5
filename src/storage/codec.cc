#include "storage/codec.h"

#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace oreo {

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kRle:
      return "rle";
    case Encoding::kDeltaVarint:
      return "delta-varint";
    case Encoding::kDictionary:
      return "dictionary";
  }
  return "unknown";
}

void PutVarint64(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint64(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < data.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data[*pos]);
    ++(*pos);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

namespace {

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadRaw(std::string_view data, size_t* pos, T* v) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

// Vectorized decode path. The wire format is untouched (encoders above are
// the single source of truth); this only reads it faster. It returns the
// exact bytes and the exact Status the scalar loop in DecodeInt64 produces —
// corruption and truncation are detected at the same points with the same
// messages — pinned by the codec fuzz cases in tests/kernels_test.cc.
// `out` is unspecified on a non-OK return (true of the scalar path too: it
// leaves a partially-filled vector).

// Delta-varint: sorted columns produce mostly small deltas, i.e. runs of
// single-byte varints. Load 8 bytes at a time; when no continuation bit is
// set, decode all 8 with an unrolled zigzag + prefix sum. Any byte with a
// continuation bit drops to the scalar GetVarint64 for that one element, so
// multi-byte varints, truncation and over-long encodings take exactly the
// reference path.
Status DecodeDeltaVarintFast(std::string_view data, size_t n,
                             std::vector<int64_t>* out) {
  out->resize(n);
  int64_t* dst = out->data();
  size_t pos = 0;
  uint64_t prev = 0;  // wrapping accumulator, mirrors the encoder
  size_t i = 0;
  while (i < n) {
    if (i + 8 <= n && pos + 8 <= data.size()) {
      uint64_t w;
      std::memcpy(&w, data.data() + pos, sizeof(w));
      if ((w & 0x8080808080808080ULL) == 0) {
        for (int b = 0; b < 8; ++b) {
          const uint64_t zz = (w >> (b * 8)) & 0x7f;
          prev += static_cast<uint64_t>(ZigZagDecode(zz));
          dst[i + static_cast<size_t>(b)] = static_cast<int64_t>(prev);
        }
        pos += 8;
        i += 8;
        continue;
      }
    }
    uint64_t zz;
    if (!GetVarint64(data, &pos, &zz)) {
      return Status::Corruption("truncated delta-varint chunk");
    }
    prev += static_cast<uint64_t>(ZigZagDecode(zz));
    dst[i++] = static_cast<int64_t>(prev);
  }
  if (pos != data.size()) {
    return Status::Corruption("trailing bytes in delta-varint chunk");
  }
  return Status::OK();
}

}  // namespace

void EncodeInt64(const std::vector<int64_t>& values, Encoding enc,
                 std::string* out) {
  switch (enc) {
    case Encoding::kPlain: {
      out->append(reinterpret_cast<const char*>(values.data()),
                  values.size() * sizeof(int64_t));
      return;
    }
    case Encoding::kRle: {
      size_t i = 0;
      while (i < values.size()) {
        size_t j = i;
        while (j < values.size() && values[j] == values[i]) ++j;
        PutVarint64(out, j - i);
        PutVarint64(out, ZigZagEncode(values[i]));
        i = j;
      }
      return;
    }
    case Encoding::kDeltaVarint: {
      // Deltas are computed with wrapping uint64 arithmetic: a signed
      // difference overflows (UB) on extreme pairs like INT64_MIN ->
      // INT64_MAX, while the two's-complement wrap round-trips exactly.
      uint64_t prev = 0;
      for (int64_t v : values) {
        uint64_t delta = static_cast<uint64_t>(v) - prev;
        PutVarint64(out, ZigZagEncode(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
      }
      return;
    }
    case Encoding::kDictionary:
      OREO_CHECK(false) << "kDictionary is not an int64 encoding";
  }
}

Status DecodeInt64(std::string_view data, Encoding enc, size_t n,
                   std::vector<int64_t>* out) {
  out->clear();
  out->reserve(n);
  switch (enc) {
    case Encoding::kPlain: {
      if (data.size() != n * sizeof(int64_t)) {
        return Status::Corruption("plain int64 chunk size mismatch");
      }
      out->resize(n);
      if (n > 0) std::memcpy(out->data(), data.data(), data.size());
      return Status::OK();
    }
    case Encoding::kRle: {
      size_t pos = 0;
      while (out->size() < n) {
        uint64_t run, zz;
        if (!GetVarint64(data, &pos, &run) || !GetVarint64(data, &pos, &zz)) {
          return Status::Corruption("truncated RLE chunk");
        }
        // `run > n - size` rather than `size + run > n`: the subtraction
        // cannot wrap (size <= n), so an absurd 2^64-scale run cannot slip
        // past the bound check.
        if (run == 0 || run > n - out->size()) {
          return Status::Corruption("RLE run overflows row count");
        }
        int64_t v = ZigZagDecode(zz);
        out->insert(out->end(), run, v);
      }
      if (pos != data.size()) {
        return Status::Corruption("trailing bytes in RLE chunk");
      }
      return Status::OK();
    }
    case Encoding::kDeltaVarint: {
      if (simd::VectorEnabled()) return DecodeDeltaVarintFast(data, n, out);
      size_t pos = 0;
      uint64_t prev = 0;  // wrapping accumulator, mirrors the encoder
      for (size_t i = 0; i < n; ++i) {
        uint64_t zz;
        if (!GetVarint64(data, &pos, &zz)) {
          return Status::Corruption("truncated delta-varint chunk");
        }
        prev += static_cast<uint64_t>(ZigZagDecode(zz));
        out->push_back(static_cast<int64_t>(prev));
      }
      if (pos != data.size()) {
        return Status::Corruption("trailing bytes in delta-varint chunk");
      }
      return Status::OK();
    }
    case Encoding::kDictionary:
      return Status::InvalidArgument("kDictionary is not an int64 encoding");
  }
  return Status::Internal("unreachable");
}

Encoding ChooseInt64Encoding(const std::vector<int64_t>& values) {
  if (values.empty()) return Encoding::kPlain;
  size_t runs = 1;
  bool sorted = true;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] != values[i - 1]) ++runs;
    if (values[i] < values[i - 1]) sorted = false;
  }
  // Few runs -> RLE wins decisively.
  if (runs * 16 <= values.size()) return Encoding::kRle;
  // Sorted (the common case after layout assignment on the sort column) ->
  // small deltas, varint wins.
  if (sorted) return Encoding::kDeltaVarint;
  return Encoding::kPlain;
}

void EncodeDouble(const std::vector<double>& values, std::string* out) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
}

Status DecodeDouble(std::string_view data, size_t n,
                    std::vector<double>* out) {
  if (data.size() != n * sizeof(double)) {
    return Status::Corruption("double chunk size mismatch");
  }
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), data.data(), data.size());
  return Status::OK();
}

void EncodeStringDict(const std::vector<uint32_t>& codes,
                      const std::vector<std::string>& dict, std::string* out) {
  PutVarint64(out, dict.size());
  for (const std::string& s : dict) {
    PutVarint64(out, s.size());
    out->append(s);
  }
  for (uint32_t c : codes) AppendRaw(out, c);
}

Status DecodeStringDict(std::string_view data, size_t n,
                        std::vector<uint32_t>* codes,
                        std::vector<std::string>* dict) {
  size_t pos = 0;
  uint64_t dict_size;
  if (!GetVarint64(data, &pos, &dict_size)) {
    return Status::Corruption("truncated dictionary header");
  }
  dict->clear();
  dict->reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    uint64_t len;
    if (!GetVarint64(data, &pos, &len) || pos + len > data.size()) {
      return Status::Corruption("truncated dictionary entry");
    }
    dict->emplace_back(data.substr(pos, len));
    pos += len;
  }
  codes->clear();
  codes->resize(n);
  if (pos + n * sizeof(uint32_t) != data.size()) {
    return Status::Corruption("dictionary code array size mismatch");
  }
  if (n > 0) std::memcpy(codes->data(), data.data() + pos, n * sizeof(uint32_t));
  if (simd::VectorEnabled()) {
    // Branchless max-scan (auto-vectorizes), one range check at the end —
    // same verdict as the early-exit reference loop below.
    uint32_t max_code = 0;
    for (uint32_t c : *codes) max_code = c > max_code ? c : max_code;
    if (n > 0 && max_code >= dict_size) {
      return Status::Corruption("dictionary code out of range");
    }
    return Status::OK();
  }
  for (uint32_t c : *codes) {
    if (c >= dict_size) return Status::Corruption("dictionary code out of range");
  }
  return Status::OK();
}

}  // namespace oreo
