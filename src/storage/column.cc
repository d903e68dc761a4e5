#include "storage/column.h"

#include "common/logging.h"

namespace oreo {

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kString:
      return codes_.size();
  }
  return 0;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

void Column::AppendInt64(int64_t v) {
  OREO_DCHECK(type_ == DataType::kInt64);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  OREO_DCHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
}

void Column::AppendString(const std::string& v) {
  OREO_DCHECK(type_ == DataType::kString);
  codes_.push_back(CodeFor(v));
}

void Column::AppendValue(const Value& v) {
  OREO_CHECK(v.type() == type_)
      << "AppendValue type mismatch: " << DataTypeName(v.type()) << " into "
      << DataTypeName(type_);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(v.AsInt64());
      break;
    case DataType::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString());
      break;
  }
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kDouble:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(dict_[codes_[row]]);
  }
  return Value();
}

double Column::GetNumeric(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kString:
      return static_cast<double>(codes_[row]);
  }
  return 0.0;
}

uint32_t Column::CodeFor(const std::string& s) {
  auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(dict_.size());
  dict_.push_back(s);
  dict_index_.emplace(s, code);
  return code;
}

void Column::AppendColumn(const Column& src) {
  OREO_CHECK(src.type_ == type_) << "AppendColumn type mismatch";
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin(),
                      src.doubles_.end());
      break;
    case DataType::kString: {
      // One dictionary lookup per distinct source code, in order of first
      // appearance: the dictionary grows exactly as a per-row AppendString
      // loop grows it, and every row gets the same code.
      constexpr uint32_t kUnmapped = UINT32_MAX;
      std::vector<uint32_t> remap(src.dict_.size(), kUnmapped);
      codes_.reserve(codes_.size() + src.codes_.size());
      for (uint32_t code : src.codes_) {
        uint32_t& mapped = remap[code];
        if (mapped == kUnmapped) mapped = CodeFor(src.dict_[code]);
        codes_.push_back(mapped);
      }
      break;
    }
  }
}

int64_t Column::FindCode(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? -1 : static_cast<int64_t>(it->second);
}

Column Column::Take(const std::vector<uint32_t>& row_ids) const {
  Column out(type_);
  out.Reserve(row_ids.size());
  switch (type_) {
    case DataType::kInt64:
      for (uint32_t r : row_ids) out.ints_.push_back(ints_[r]);
      break;
    case DataType::kDouble:
      for (uint32_t r : row_ids) out.doubles_.push_back(doubles_[r]);
      break;
    case DataType::kString:
      // Share the full dictionary: simpler and correct; unreferenced entries
      // are harmless for query evaluation.
      out.dict_ = dict_;
      out.dict_index_ = dict_index_;
      for (uint32_t r : row_ids) out.codes_.push_back(codes_[r]);
      break;
  }
  return out;
}

void Column::SetStringData(std::vector<uint32_t> codes,
                           std::vector<std::string> dict) {
  OREO_CHECK(type_ == DataType::kString);
  codes_ = std::move(codes);
  dict_ = std::move(dict);
  dict_index_.clear();
  for (uint32_t i = 0; i < dict_.size(); ++i) dict_index_.emplace(dict_[i], i);
}

}  // namespace oreo
