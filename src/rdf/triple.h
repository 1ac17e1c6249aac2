#ifndef GRIDVINE_RDF_TRIPLE_H_
#define GRIDVINE_RDF_TRIPLE_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/term.h"

namespace gridvine {

/// Position of a term within a triple or triple pattern.
enum class TriplePos { kSubject = 0, kPredicate = 1, kObject = 2 };

const char* TriplePosName(TriplePos pos);

/// The unit of data in GridVine's mediation layer (paper Section 2.2):
/// t = {subject, predicate, object}. Subject and predicate are URIs; the
/// object is a URI or a literal. Triples are immutable value types.
class Triple {
 public:
  Triple() = default;
  /// Callers must pass a URI subject/predicate; enforced by Validate().
  Triple(Term subject, Term predicate, Term object)
      : subject_(std::move(subject)),
        predicate_(std::move(predicate)),
        object_(std::move(object)) {}

  const Term& subject() const { return subject_; }
  const Term& predicate() const { return predicate_; }
  const Term& object() const { return object_; }
  const Term& at(TriplePos pos) const;

  /// Checks the RDF well-formedness constraints.
  Status Validate() const;

  /// Line serialization "kindS:value\tkindP:value\tkindO:value" with
  /// backslash escaping of tabs/backslashes; inverse of Parse.
  std::string Serialize() const;
  static Result<Triple> Parse(const std::string& line);

  std::string ToString() const {
    // Appended piecewise: a `"(" + std::string&&` chain trips GCC 12's
    // -Wrestrict false positive in every file that includes this header.
    std::string out = "(";
    out += subject_.ToString();
    out += ", ";
    out += predicate_.ToString();
    out += ", ";
    out += object_.ToString();
    out += ")";
    return out;
  }

  bool operator==(const Triple& other) const {
    return subject_ == other.subject_ && predicate_ == other.predicate_ &&
           object_ == other.object_;
  }
  bool operator!=(const Triple& other) const { return !(*this == other); }
  bool operator<(const Triple& other) const;

 private:
  Term subject_;
  Term predicate_;
  Term object_;
};

inline std::ostream& operator<<(std::ostream& os, const Triple& t) {
  return os << t.ToString();
}

/// Splits a serialized triple/pattern line into its three terms without
/// applying RDF validation (shared by Triple::Parse and
/// TriplePattern::Parse).
Result<std::vector<Term>> ParseTermFields(const std::string& line);

/// Globally unique identifier scheme (paper Section 2.2): local resource and
/// schema names are made global by concatenating the posting peer's logical
/// address π(p) with a hash of the local identifier:
/// "gv://<path>-<hash16>/<local>".
std::string MakeGlobalId(const std::string& peer_path,
                         const std::string& local_name);

}  // namespace gridvine

#endif  // GRIDVINE_RDF_TRIPLE_H_
