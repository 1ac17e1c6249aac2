#include "rdf/ntriples.h"

#include <cctype>

#include "common/string_util.h"

namespace gridvine {

namespace {

std::string EscapeLiteral(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Cursor over one line.
class LineScanner {
 public:
  explicit LineScanner(const std::string& line) : line_(line) {}

  void SkipSpace() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= line_.size();
  }

  Status Error(const std::string& what) const {
    return Status::Corruption("N-Triples: " + what + " (column " +
                              std::to_string(pos_ + 1) + ")");
  }

  Result<std::string> ParseUriRef() {
    SkipSpace();
    if (pos_ >= line_.size() || line_[pos_] != '<') {
      return Error("expected '<'");
    }
    ++pos_;
    std::string uri;
    while (pos_ < line_.size() && line_[pos_] != '>') {
      uri.push_back(line_[pos_++]);
    }
    if (pos_ >= line_.size()) return Error("unterminated URI");
    ++pos_;
    if (uri.empty()) return Error("empty URI");
    return uri;
  }

  Result<Term> ParseObject() {
    SkipSpace();
    if (pos_ >= line_.size()) return Error("expected object term");
    if (line_[pos_] == '<') {
      GV_ASSIGN_OR_RETURN(std::string uri, ParseUriRef());
      return Term::Uri(uri);
    }
    if (line_[pos_] != '"') return Error("expected '\"' or '<'");
    ++pos_;
    std::string lit;
    while (pos_ < line_.size()) {
      char c = line_[pos_++];
      if (c == '\\') {
        if (pos_ >= line_.size()) return Error("dangling escape");
        char e = line_[pos_++];
        switch (e) {
          case '"':
            lit.push_back('"');
            break;
          case '\\':
            lit.push_back('\\');
            break;
          case 'n':
            lit.push_back('\n');
            break;
          case 't':
            lit.push_back('\t');
            break;
          default:
            return Error(std::string("unknown escape '\\") + e + "'");
        }
      } else if (c == '"') {
        return Term::Literal(lit);
      } else {
        lit.push_back(c);
      }
    }
    return Error("unterminated literal");
  }

  Status ExpectDot() {
    SkipSpace();
    if (pos_ >= line_.size() || line_[pos_] != '.') {
      return Error("expected terminating '.'");
    }
    ++pos_;
    SkipSpace();
    // A trailing comment after the '.' is allowed.
    if (pos_ < line_.size() && line_[pos_] != '#') {
      return Error("trailing content after '.'");
    }
    return Status::OK();
  }

 private:
  const std::string& line_;
  size_t pos_ = 0;
};

}  // namespace

std::string ToNTriplesLine(const Triple& triple) {
  std::string out = "<";
  out += triple.subject().value();
  out += "> <";
  out += triple.predicate().value();
  out += "> ";
  if (triple.object().IsUri()) {
    out += "<";
    out += triple.object().value();
    out += ">";
  } else {
    out += "\"";
    out += EscapeLiteral(triple.object().value());
    out += "\"";
  }
  out += " .";
  return out;
}

Result<Triple> ParseNTriplesLine(const std::string& line) {
  LineScanner scan(line);
  GV_ASSIGN_OR_RETURN(std::string subject, scan.ParseUriRef());
  GV_ASSIGN_OR_RETURN(std::string predicate, scan.ParseUriRef());
  GV_ASSIGN_OR_RETURN(Term object, scan.ParseObject());
  GV_RETURN_NOT_OK(scan.ExpectDot());
  Triple t(Term::Uri(subject), Term::Uri(predicate), std::move(object));
  GV_RETURN_NOT_OK(t.Validate());
  return t;
}

std::string ToNTriples(const std::vector<Triple>& triples) {
  std::string out;
  for (const Triple& t : triples) {
    out += ToNTriplesLine(t);
    out.push_back('\n');
  }
  return out;
}

Result<std::vector<Triple>> ParseNTriples(const std::string& text) {
  std::vector<Triple> out;
  size_t line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    // Strip comments and skip blank lines.
    std::string line = raw;
    size_t hash = line.find('#');
    // '#' inside a URI or literal is content, not a comment: only treat a
    // '#' before any '<' / '"' as a comment starter.
    size_t first_term = line.find_first_of("<\"");
    if (hash != std::string::npos &&
        (first_term == std::string::npos || hash < first_term)) {
      line = line.substr(0, hash);
    }
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    auto triple = ParseNTriplesLine(line);
    if (!triple.ok()) {
      return Status::Corruption("line " + std::to_string(line_no) + ": " +
                                triple.status().message());
    }
    out.push_back(std::move(triple).value());
  }
  return out;
}

}  // namespace gridvine
