#include "storage/metadata_io.h"

#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "storage/codec.h"

namespace oreo {

namespace {

constexpr char kMagic[8] = {'O', 'R', 'E', 'O', 'M', 'E', 'T', '1'};

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

void PutString(std::string* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->append(s);
}

bool GetString(const std::string& data, size_t* pos, std::string* s) {
  uint64_t len;
  if (!GetVarint64(data, pos, &len) || *pos + len > data.size()) return false;
  s->assign(data, *pos, len);
  *pos += len;
  return true;
}

void PutZone(std::string* out, const ColumnZone& z) {
  out->push_back(static_cast<char>(z.type));
  out->push_back(z.empty ? 1 : 0);
  AppendRaw(out, z.int_min);
  AppendRaw(out, z.int_max);
  AppendRaw(out, z.dbl_min);
  AppendRaw(out, z.dbl_max);
  PutString(out, z.str_min);
  PutString(out, z.str_max);
  out->push_back(z.distinct_overflow ? 1 : 0);
  PutVarint64(out, z.distinct.size());
  for (const std::string& s : z.distinct) PutString(out, s);
}

bool GetZone(const std::string& data, size_t* pos, ColumnZone* z) {
  if (*pos + 2 > data.size()) return false;
  z->type = static_cast<DataType>(data[(*pos)++]);
  z->empty = data[(*pos)++] != 0;
  if (!ReadRaw(data, pos, &z->int_min) || !ReadRaw(data, pos, &z->int_max) ||
      !ReadRaw(data, pos, &z->dbl_min) || !ReadRaw(data, pos, &z->dbl_max)) {
    return false;
  }
  if (!GetString(data, pos, &z->str_min) ||
      !GetString(data, pos, &z->str_max)) {
    return false;
  }
  if (*pos + 1 > data.size()) return false;
  z->distinct_overflow = data[(*pos)++] != 0;
  uint64_t n;
  if (!GetVarint64(data, pos, &n)) return false;
  z->distinct.clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    if (!GetString(data, pos, &s)) return false;
    z->distinct.insert(std::move(s));
  }
  return true;
}

}  // namespace

PartitionMetadata MetadataFrom(const Schema& schema, const Partitioning& p,
                               std::string layout_name) {
  PartitionMetadata meta;
  meta.schema = schema;
  meta.zones = p.zones;
  meta.total_rows = p.total_rows;
  meta.layout_name = std::move(layout_name);
  return meta;
}

std::string SerializePartitionMetadata(const PartitionMetadata& meta) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutString(&out, meta.layout_name);
  AppendRaw(&out, meta.total_rows);
  // Schema.
  PutVarint64(&out, meta.schema.num_fields());
  for (const Field& f : meta.schema.fields()) {
    PutString(&out, f.name);
    out.push_back(static_cast<char>(f.type));
  }
  // Zones.
  PutVarint64(&out, meta.zones.size());
  for (const ZoneMap& zm : meta.zones) {
    AppendRaw(&out, zm.num_rows);
    PutVarint64(&out, zm.columns.size());
    for (const ColumnZone& z : zm.columns) PutZone(&out, z);
  }
  uint32_t crc = Crc32c(out.data(), out.size());
  AppendRaw(&out, crc);
  return out;
}

Result<PartitionMetadata> DeserializePartitionMetadata(
    const std::string& data) {
  if (data.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::Corruption("metadata too small");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad metadata magic");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, data.data() + data.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored_crc != Crc32c(data.data(), data.size() - sizeof(uint32_t))) {
    return Status::Corruption("metadata checksum mismatch");
  }

  PartitionMetadata meta;
  size_t pos = sizeof(kMagic);
  if (!GetString(data, &pos, &meta.layout_name) ||
      !ReadRaw(data, &pos, &meta.total_rows)) {
    return Status::Corruption("truncated metadata header");
  }
  uint64_t n_fields;
  if (!GetVarint64(data, &pos, &n_fields)) {
    return Status::Corruption("truncated schema");
  }
  std::vector<Field> fields;
  for (uint64_t i = 0; i < n_fields; ++i) {
    Field f;
    if (!GetString(data, &pos, &f.name) || pos + 1 > data.size()) {
      return Status::Corruption("truncated schema field");
    }
    f.type = static_cast<DataType>(data[pos++]);
    fields.push_back(std::move(f));
  }
  meta.schema = Schema(std::move(fields));
  uint64_t n_zones;
  if (!GetVarint64(data, &pos, &n_zones)) {
    return Status::Corruption("truncated zone count");
  }
  for (uint64_t i = 0; i < n_zones; ++i) {
    ZoneMap zm;
    if (!ReadRaw(data, &pos, &zm.num_rows)) {
      return Status::Corruption("truncated zone map");
    }
    uint64_t n_cols;
    if (!GetVarint64(data, &pos, &n_cols)) {
      return Status::Corruption("truncated zone columns");
    }
    for (uint64_t c = 0; c < n_cols; ++c) {
      ColumnZone z;
      if (!GetZone(data, &pos, &z)) {
        return Status::Corruption("truncated column zone");
      }
      zm.columns.push_back(std::move(z));
    }
    meta.zones.push_back(std::move(zm));
  }
  if (pos != data.size() - sizeof(uint32_t)) {
    return Status::Corruption("trailing bytes in metadata");
  }
  return meta;
}

Status WriteMetadataTo(StorageBackend* backend, const std::string& path,
                       const PartitionMetadata& meta) {
  OREO_CHECK(backend != nullptr);
  return backend->AtomicWriteBlock(path, SerializePartitionMetadata(meta),
                                   /*sync=*/false);
}

Result<PartitionMetadata> ReadMetadataFrom(StorageBackend* backend,
                                           const std::string& path) {
  OREO_CHECK(backend != nullptr);
  OREO_ASSIGN_OR_RETURN(std::string data, backend->ReadBlock(path));
  return DeserializePartitionMetadata(data);
}

}  // namespace oreo
