#include "src/db/table.h"

#include <algorithm>

namespace dpc {

std::string IndexSignatureToString(const IndexSignature& sig) {
  std::string out = "[";
  for (size_t i = 0; i < sig.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(sig[i]);
  }
  out += "]";
  return out;
}

uint64_t Table::KeyHashOf(const IndexSignature& sig, const Tuple& t) {
  Fnv1a h;
  for (size_t col : sig) {
    if (col >= t.arity()) continue;
    t.at(col).HashInto(h);
  }
  return h.hash();
}

const Table::HashIndex& Table::IndexFor(const IndexSignature& sig) const {
  auto it = indexes_.find(sig);
  if (it == indexes_.end()) {
    // First probe of this signature: index every slot, dead ones included,
    // so buckets stay correct when an erased tuple is re-inserted (its
    // slot is revived in place and never re-indexed).
    HashIndex index;
    for (size_t row = 0; row < rows_.size(); ++row) {
      index.buckets[KeyHashOf(sig, *rows_[row].tuple)].push_back(row);
    }
    it = indexes_.emplace(sig, std::move(index)).first;
  }
  return it->second;
}

void Table::CollectFromIndex(const HashIndex& index, uint64_t key_hash,
                             std::vector<const TupleRef*>& out) const {
  auto it = index.buckets.find(key_hash);
  if (it == index.buckets.end()) return;
  for (size_t row : it->second) {
    const Slot& slot = rows_[row];
    if (slot.live) out.push_back(&slot.tuple);
  }
}

bool Table::Insert(const Tuple& t) {
  return InsertImpl(t, [&] { return MakeTupleRef(t); });
}

bool Table::Insert(TupleRef t) {
  return InsertImpl(*t, [&] { return std::move(t); });
}

bool Table::Erase(const Tuple& t) {
  auto it = index_.find(t.Vid());
  if (it == index_.end() || !rows_[it->second].live) return false;
  Slot& slot = rows_[it->second];
  slot.live = false;
  --live_count_;
  live_bytes_ -= slot.tuple->SerializedSize();
  return true;
}

bool Table::Contains(const Tuple& t) const {
  auto it = index_.find(t.Vid());
  return it != index_.end() && rows_[it->second].live;
}

std::vector<Tuple> Table::Snapshot() const {
  std::vector<Tuple> out;
  out.reserve(live_count_);
  for (const auto& slot : rows_) {
    if (slot.live) out.push_back(*slot.tuple);
  }
  return out;
}

void Table::Serialize(ByteWriter& w) const {
  w.PutString(name_);
  w.PutVarint(live_count_);
  w.Reserve(live_bytes_);
  for (const auto& slot : rows_) {
    if (slot.live) slot.tuple->Serialize(w);
  }
}

size_t Table::SerializedSize() const {
  return StringSerializedSize(name_) + VarintSize(live_count_) + live_bytes_;
}

Table& Database::GetOrCreate(const std::string& relation) {
  auto it = tables_.find(relation);
  if (it == tables_.end()) {
    it = tables_.emplace(relation, Table(relation)).first;
  }
  return it->second;
}

const Table* Database::Find(const std::string& relation) const {
  auto it = tables_.find(relation);
  return it == tables_.end() ? nullptr : &it->second;
}

Table* Database::Find(const std::string& relation) {
  auto it = tables_.find(relation);
  return it == tables_.end() ? nullptr : &it->second;
}

bool Database::Erase(const Tuple& t) {
  Table* table = Find(t.relation());
  return table != nullptr && table->Erase(t);
}

bool Database::Contains(const Tuple& t) const {
  const Table* table = Find(t.relation());
  return table != nullptr && table->Contains(t);
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [_, table] : tables_) n += table.size();
  return n;
}

}  // namespace dpc
