#include "storage/zone_map.h"

#include <algorithm>

#include "common/logging.h"

namespace oreo {

void ColumnZone::UpdateInt64(int64_t v) {
  if (empty) {
    int_min = int_max = v;
    empty = false;
  } else {
    int_min = std::min(int_min, v);
    int_max = std::max(int_max, v);
  }
}

void ColumnZone::UpdateDouble(double v) {
  if (empty) {
    dbl_min = dbl_max = v;
    empty = false;
  } else {
    dbl_min = std::min(dbl_min, v);
    dbl_max = std::max(dbl_max, v);
  }
}

void ColumnZone::UpdateString(const std::string& v) {
  if (empty) {
    str_min = str_max = v;
    empty = false;
  } else {
    if (v < str_min) str_min = v;
    if (v > str_max) str_max = v;
  }
  if (!distinct_overflow) {
    distinct.insert(v);
    if (distinct.size() > kMaxDistinct) {
      distinct.clear();
      distinct_overflow = true;
    }
  }
}

ZoneMap ZoneMap::ForSchema(const Schema& schema) {
  ZoneMap zm;
  zm.columns.resize(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    zm.columns[i].type = schema.field(i).type;
  }
  return zm;
}

namespace {

// Folds the rows row_at(0) .. row_at(m - 1) of `col` into `zone`. Numeric
// columns fold in row order, the exact min/max sequence of a row loop (so
// NaN and signed-zero outcomes do not change). A string column first marks
// the distinct dictionary codes its rows use, then folds each marked code's
// string once: min, max and the distinct set depend only on the set of
// values, and a dictionary may hold one string under several codes.
template <typename RowAt>
void FoldColumn(const Column& col, size_t m, const RowAt& row_at,
                ColumnZone* zone) {
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t* v = col.ints().data();
      for (size_t i = 0; i < m; ++i) zone->UpdateInt64(v[row_at(i)]);
      return;
    }
    case DataType::kDouble: {
      const double* v = col.doubles().data();
      for (size_t i = 0; i < m; ++i) zone->UpdateDouble(v[row_at(i)]);
      return;
    }
    case DataType::kString: {
      const uint32_t* codes = col.codes().data();
      std::vector<uint8_t> seen(col.dictionary().size(), 0);
      std::vector<uint32_t> used;  // first-appearance order
      for (size_t i = 0; i < m; ++i) {
        const uint32_t code = codes[row_at(i)];
        if (seen[code] == 0) {
          seen[code] = 1;
          used.push_back(code);
        }
      }
      for (uint32_t code : used) zone->UpdateString(col.dictionary()[code]);
      return;
    }
  }
}

template <typename RowAt>
ZoneMap BuildZoneMapColumnar(const Table& table, size_t m,
                             const RowAt& row_at) {
  ZoneMap zm = ZoneMap::ForSchema(table.schema());
  OREO_DCHECK(zm.columns.size() == table.num_columns());
  for (size_t c = 0; c < zm.columns.size(); ++c) {
    FoldColumn(table.column(c), m, row_at, &zm.columns[c]);
  }
  zm.num_rows = m;
  return zm;
}

}  // namespace

ZoneMap BuildZoneMap(const Table& table, const std::vector<uint32_t>& row_ids) {
  return BuildZoneMapColumnar(table, row_ids.size(),
                              [&](size_t i) { return row_ids[i]; });
}

ZoneMap BuildZoneMap(const Table& table) {
  return BuildZoneMapColumnar(table, table.num_rows(),
                              [](size_t i) { return i; });
}

}  // namespace oreo
