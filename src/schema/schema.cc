#include "schema/schema.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace gridvine {

bool Schema::HasAttribute(const std::string& local_name) const {
  return std::find(attributes_.begin(), attributes_.end(), local_name) !=
         attributes_.end();
}

std::vector<std::string> Schema::AttributeUris() const {
  std::vector<std::string> out;
  out.reserve(attributes_.size());
  for (const auto& a : attributes_) out.push_back(AttributeUri(a));
  return out;
}

Result<std::pair<std::string, std::string>> Schema::SplitAttributeUri(
    const std::string& uri) {
  size_t pos = uri.rfind('#');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("attribute URI lacks '#': " + uri);
  }
  return std::make_pair(uri.substr(0, pos), uri.substr(pos + 1));
}

std::string Schema::SchemaOfUri(const std::string& uri) {
  size_t pos = uri.rfind('#');
  return pos == std::string::npos ? "" : uri.substr(0, pos);
}

std::string Schema::LocalOfUri(const std::string& uri) {
  size_t pos = uri.rfind('#');
  return pos == std::string::npos ? uri : uri.substr(pos + 1);
}

namespace {

bool HasReservedChar(const std::string& s) {
  return s.find('#') != std::string::npos ||
         s.find('\t') != std::string::npos ||
         s.find('|') != std::string::npos ||
         s.find(',') != std::string::npos;
}

}  // namespace

Status Schema::ValidateName(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("schema name empty");
  if (HasReservedChar(name)) {
    return Status::InvalidArgument("schema name has reserved char: " + name);
  }
  return Status::OK();
}

Status Schema::Validate() const {
  GV_RETURN_NOT_OK(ValidateName(name_));
  if (HasReservedChar(domain_)) {
    return Status::InvalidArgument("domain has reserved char: " + domain_);
  }
  std::set<std::string> seen;
  for (const auto& a : attributes_) {
    if (a.empty()) return Status::InvalidArgument("empty attribute name");
    if (HasReservedChar(a)) {
      return Status::InvalidArgument("attribute has reserved char: " + a);
    }
    if (!seen.insert(a).second) {
      return Status::InvalidArgument("duplicate attribute: " + a);
    }
  }
  return Status::OK();
}

std::string Schema::Serialize() const {
  return "schema|" + name_ + "|" + domain_ + "|" + Join(attributes_, ",");
}

Result<Schema> Schema::Parse(const std::string& line) {
  std::vector<std::string> parts = Split(line, '|');
  if (parts.size() != 4 || parts[0] != "schema") {
    return Status::Corruption("not a schema record: " + line);
  }
  std::vector<std::string> attrs;
  if (!parts[3].empty()) attrs = Split(parts[3], ',');
  Schema s(parts[1], parts[2], std::move(attrs));
  GV_RETURN_NOT_OK(s.Validate());
  return s;
}

InternPool<Schema>& SchemaPool() {
  static InternPool<Schema> pool;
  return pool;
}

Status SchemaRegistry::Register(const Schema& schema) {
  GV_RETURN_NOT_OK(schema.Validate());
  auto shared = SchemaPool().Intern(schema.Serialize(), schema);
  for (auto& s : schemas_) {
    if (s->name() == schema.name()) {
      s = std::move(shared);
      return Status::OK();
    }
  }
  schemas_.push_back(std::move(shared));
  return Status::OK();
}

bool SchemaRegistry::Contains(const std::string& name) const {
  return GetShared(name) != nullptr;
}

Result<Schema> SchemaRegistry::Get(const std::string& name) const {
  if (auto s = GetShared(name)) return *s;
  return Status::NotFound("schema not registered: " + name);
}

std::shared_ptr<const Schema> SchemaRegistry::GetShared(
    const std::string& name) const {
  for (const auto& s : schemas_) {
    if (s->name() == name) return s;
  }
  return nullptr;
}

std::vector<std::string> SchemaRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(schemas_.size());
  for (const auto& s : schemas_) out.push_back(s->name());
  return out;
}

}  // namespace gridvine
