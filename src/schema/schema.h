#ifndef GRIDVINE_SCHEMA_SCHEMA_H_
#define GRIDVINE_SCHEMA_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/result.h"

namespace gridvine {

/// A user-defined schema at the mediation layer (paper Section 2.2): a named
/// set of attributes used as predicates in triples. An attribute "Organism"
/// of schema "EMBL" appears in triples as the predicate URI "EMBL#Organism".
///
/// Schemas carry the application `domain` they belong to (e.g.
/// "protein-sequences"), which names the key space where connectivity
/// statistics for the domain are aggregated (Section 3.1).
class Schema {
 public:
  Schema() = default;
  Schema(std::string name, std::string domain,
         std::vector<std::string> attributes)
      : name_(std::move(name)),
        domain_(std::move(domain)),
        attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  const std::string& domain() const { return domain_; }
  const std::vector<std::string>& attributes() const { return attributes_; }

  bool HasAttribute(const std::string& local_name) const;

  /// Full predicate URI of a local attribute name: "<schema>#<attr>".
  std::string AttributeUri(const std::string& local_name) const {
    return name_ + "#" + local_name;
  }
  /// All attribute URIs in declaration order.
  std::vector<std::string> AttributeUris() const;

  /// Splits "<schema>#<attr>" into (schema, attr); error if no '#'.
  static Result<std::pair<std::string, std::string>> SplitAttributeUri(
      const std::string& uri);
  /// The schema part of an attribute URI, or "" if the URI has no '#'.
  static std::string SchemaOfUri(const std::string& uri);
  /// The local part of an attribute URI (after the last '#').
  static std::string LocalOfUri(const std::string& uri);

  /// Checks invariants: a valid name (ValidateName), no reserved characters
  /// in the domain or attribute names, no duplicate attributes.
  Status Validate() const;
  /// A schema name is non-empty and free of the reserved characters '#',
  /// '\t', '|' and ','.
  static Status ValidateName(const std::string& name);

  /// Line format "schema|<name>|<domain>|attr1,attr2,...".
  std::string Serialize() const;
  static Result<Schema> Parse(const std::string& line);

  bool operator==(const Schema& other) const {
    return name_ == other.name_ && domain_ == other.domain_ &&
           attributes_ == other.attributes_;
  }

 private:
  std::string name_;
  std::string domain_;
  std::vector<std::string> attributes_;
};

/// The process-wide Schema intern pool: every SchemaRegistry entry is a ref
/// into it, so N peers tracking the same schema hold one object, not N.
InternPool<Schema>& SchemaPool();

/// In-memory set of known schemas (the view a single peer accumulates).
/// Entries are refcounted interned objects shared across registries.
class SchemaRegistry {
 public:
  /// Registers or replaces a schema under its name.
  Status Register(const Schema& schema);
  bool Contains(const std::string& name) const;
  Result<Schema> Get(const std::string& name) const;
  /// The shared immutable object for `name`, or null when absent. Prefer
  /// this over Get() when the caller just reads — no copy.
  std::shared_ptr<const Schema> GetShared(const std::string& name) const;
  std::vector<std::string> Names() const;
  size_t size() const { return schemas_.size(); }

  /// Bytes owned by this registry itself (the ref array — the schemas live
  /// in SchemaPool() and are shared).
  size_t MemoryFootprint() const {
    return schemas_.capacity() * sizeof(schemas_[0]);
  }

 private:
  std::vector<std::shared_ptr<const Schema>> schemas_;
};

}  // namespace gridvine

#endif  // GRIDVINE_SCHEMA_SCHEMA_H_
