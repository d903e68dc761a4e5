#include "storage/block.h"

#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "storage/codec.h"

namespace oreo {

namespace {

constexpr char kMagic[8] = {'O', 'R', 'E', 'O', 'B', 'L', 'K', '1'};
constexpr uint32_t kVersion = 1;

template <typename T>
void AppendRaw(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadRaw(const std::string& data, size_t* pos, T* v) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(v, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

std::string SerializeBlock(const Table& table) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendRaw(&out, kVersion);
  AppendRaw(&out, static_cast<uint32_t>(table.num_columns()));
  AppendRaw(&out, static_cast<uint64_t>(table.num_rows()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    const std::string& name = table.schema().field(c).name;
    PutVarint64(&out, name.size());
    out.append(name);
    out.push_back(static_cast<char>(col.type()));

    std::string payload;
    Encoding enc = Encoding::kPlain;
    switch (col.type()) {
      case DataType::kInt64:
        enc = ChooseInt64Encoding(col.ints());
        EncodeInt64(col.ints(), enc, &payload);
        break;
      case DataType::kDouble:
        enc = Encoding::kPlain;
        EncodeDouble(col.doubles(), &payload);
        break;
      case DataType::kString:
        enc = Encoding::kDictionary;
        EncodeStringDict(col.codes(), col.dictionary(), &payload);
        break;
    }
    out.push_back(static_cast<char>(enc));
    AppendRaw(&out, static_cast<uint64_t>(payload.size()));
    out.append(payload);
  }
  uint32_t crc = Crc32c(out.data(), out.size());
  AppendRaw(&out, crc);
  return out;
}

Result<Table> DeserializeBlock(const std::string& data,
                               const BlockReadOptions& options) {
  if (data.size() < sizeof(kMagic) + sizeof(uint32_t) * 3 + sizeof(uint64_t)) {
    return Status::Corruption("block too small");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad block magic");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  uint32_t actual_crc = Crc32c(data.data(), data.size() - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::Corruption("block checksum mismatch");
  }

  size_t pos = sizeof(kMagic);
  uint32_t version, ncols;
  uint64_t nrows;
  if (!ReadRaw(data, &pos, &version) || !ReadRaw(data, &pos, &ncols) ||
      !ReadRaw(data, &pos, &nrows)) {
    return Status::Corruption("truncated block header");
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported block version");
  }

  const size_t payload_end = data.size() - sizeof(uint32_t);
  std::vector<Field> fields;
  struct RawChunk {
    Encoding enc;
    std::string_view payload;
  };
  std::vector<RawChunk> chunks;
  for (uint32_t c = 0; c < ncols; ++c) {
    uint64_t name_len;
    if (!GetVarint64(std::string_view(data.data(), payload_end), &pos,
                     &name_len) ||
        pos + name_len > payload_end) {
      return Status::Corruption("truncated column name");
    }
    std::string name(data.data() + pos, name_len);
    pos += name_len;
    if (pos + 2 > payload_end) return Status::Corruption("truncated column meta");
    auto type = static_cast<DataType>(data[pos++]);
    auto enc = static_cast<Encoding>(data[pos++]);
    uint64_t payload_size;
    if (!ReadRaw(data, &pos, &payload_size) ||
        pos + payload_size > payload_end) {
      return Status::Corruption("truncated column payload");
    }
    fields.push_back(Field{std::move(name), type});
    chunks.push_back(RawChunk{enc, std::string_view(data.data() + pos,
                                                    payload_size)});
    pos += payload_size;
  }
  if (pos != payload_end) {
    return Status::Corruption("trailing bytes in block");
  }

  // Apply the column projection: keep block order, drop unrequested columns.
  std::vector<uint32_t> selected;
  std::vector<Field> selected_fields;
  for (uint32_t c = 0; c < ncols; ++c) {
    bool keep = true;
    if (options.columns != nullptr) {
      keep = false;
      for (const std::string& want : *options.columns) {
        if (fields[c].name == want) {
          keep = true;
          break;
        }
      }
    }
    if (keep) {
      selected.push_back(c);
      selected_fields.push_back(fields[c]);
    }
  }

  Table table(Schema(std::move(selected_fields)));
  for (uint32_t out_c = 0; out_c < selected.size(); ++out_c) {
    uint32_t c = selected[out_c];
    Column* col = table.mutable_column(out_c);
    switch (col->type()) {
      case DataType::kInt64: {
        OREO_RETURN_NOT_OK(
            DecodeInt64(chunks[c].payload, chunks[c].enc, nrows,
                        col->mutable_ints()));
        break;
      }
      case DataType::kDouble: {
        if (chunks[c].enc != Encoding::kPlain) {
          return Status::Corruption("unexpected double encoding");
        }
        OREO_RETURN_NOT_OK(
            DecodeDouble(chunks[c].payload, nrows, col->mutable_doubles()));
        break;
      }
      case DataType::kString: {
        if (chunks[c].enc != Encoding::kDictionary) {
          return Status::Corruption("unexpected string encoding");
        }
        std::vector<uint32_t> codes;
        std::vector<std::string> dict;
        OREO_RETURN_NOT_OK(
            DecodeStringDict(chunks[c].payload, nrows, &codes, &dict));
        col->SetStringData(std::move(codes), std::move(dict));
        break;
      }
    }
  }
  table.FinishAppends();
  if (!selected.empty() && table.num_rows() != nrows) {
    return Status::Corruption("row count mismatch after decode");
  }
  return table;
}

Result<uint64_t> WriteBlockTo(StorageBackend* backend, const std::string& path,
                              const Table& table, bool sync) {
  OREO_CHECK(backend != nullptr);
  std::string data = SerializeBlock(table);
  OREO_RETURN_NOT_OK(backend->AtomicWriteBlock(path, data, sync));
  return static_cast<uint64_t>(data.size());
}

Result<Table> ReadBlockFrom(StorageBackend* backend, const std::string& path,
                            const BlockReadOptions& options) {
  OREO_CHECK(backend != nullptr);
  OREO_ASSIGN_OR_RETURN(std::string data, backend->ReadBlock(path));
  return DeserializeBlock(data, options);
}

size_t SerializedBlockSize(const Table& table) {
  return SerializeBlock(table).size();
}

}  // namespace oreo
