#include "query/rq.h"

#include <algorithm>
#include <cctype>
#include <queue>
#include <set>
#include <sstream>

#include "common/string_util.h"

namespace sgq {

std::vector<const Rule*> RegularQuery::RulesFor(LabelId label) const {
  std::vector<const Rule*> out;
  for (const Rule& r : rules_) {
    if (r.head == label) out.push_back(&r);
  }
  return out;
}

std::unordered_map<LabelId, std::vector<LabelId>>
RegularQuery::DependencyGraph() const {
  std::unordered_map<LabelId, std::vector<LabelId>> deps;
  for (const Rule& r : rules_) {
    auto& d = deps[r.head];
    for (const BodyAtom& a : r.body) {
      if (a.IsClosure()) {
        // head depends on the alias; the alias depends on the base label.
        d.push_back(a.alias);
        deps[a.alias].push_back(a.label);
      } else {
        d.push_back(a.label);
      }
    }
  }
  return deps;
}

Result<std::vector<LabelId>> RegularQuery::TopologicalOrder() const {
  auto deps = DependencyGraph();
  std::vector<LabelId> order;
  std::unordered_map<LabelId, int> mark;  // 0 = new, 1 = visiting, 2 = done

  // Iterative DFS with an explicit stack for post-order.
  std::vector<LabelId> roots;
  for (const auto& [label, _] : deps) roots.push_back(label);
  std::sort(roots.begin(), roots.end());

  for (LabelId root : roots) {
    if (mark[root] == 2) continue;
    std::vector<std::pair<LabelId, std::size_t>> stack = {{root, 0}};
    mark[root] = 1;
    while (!stack.empty()) {
      auto& [label, child_idx] = stack.back();
      auto it = deps.find(label);
      const std::vector<LabelId>& children =
          it != deps.end() ? it->second : std::vector<LabelId>{};
      if (child_idx < children.size()) {
        LabelId child = children[child_idx++];
        if (deps.count(child) == 0) continue;  // EDB leaf
        if (mark[child] == 1) {
          return Status::InvalidArgument(
              "recursive dependency through predicate id " +
              std::to_string(child) + " (RQ must be non-recursive)");
        }
        if (mark[child] == 0) {
          mark[child] = 1;
          stack.emplace_back(child, 0);
        }
      } else {
        mark[label] = 2;
        order.push_back(label);
        stack.pop_back();
      }
    }
  }
  return order;
}

Status RegularQuery::Validate(const Vocabulary& vocab) const {
  if (rules_.empty()) return Status::InvalidArgument("RQ has no rules");
  if (answer_ == kInvalidLabel) {
    return Status::InvalidArgument("RQ has no Answer predicate");
  }
  std::set<LabelId> heads;
  for (const Rule& r : rules_) heads.insert(r.head);
  if (heads.count(answer_) == 0) {
    return Status::InvalidArgument("no rule defines the Answer predicate");
  }
  for (const Rule& r : rules_) {
    if (vocab.IsInputLabel(r.head)) {
      return Status::InvalidArgument("rule head '" + vocab.LabelName(r.head) +
                                     "' is an input label; heads must be "
                                     "derived (Def. 13)");
    }
    if (r.body.empty()) {
      return Status::InvalidArgument("rule for '" + vocab.LabelName(r.head) +
                                     "' has an empty body");
    }
    std::set<std::string> body_vars;
    for (const BodyAtom& a : r.body) {
      body_vars.insert(a.src);
      body_vars.insert(a.trg);
      if (a.IsClosure()) {
        if (a.alias == kInvalidLabel) {
          return Status::InvalidArgument("closure atom over '" +
                                         vocab.LabelName(a.label) +
                                         "' lacks an alias label");
        }
        if (vocab.IsInputLabel(a.alias)) {
          return Status::InvalidArgument(
              "closure alias '" + vocab.LabelName(a.alias) +
              "' is an input label; aliases must be derived");
        }
        if (heads.count(a.alias) > 0) {
          return Status::InvalidArgument(
              "closure alias '" + vocab.LabelName(a.alias) +
              "' collides with a rule head");
        }
      }
    }
    if (body_vars.count(r.head_src) == 0 ||
        body_vars.count(r.head_trg) == 0) {
      return Status::InvalidArgument(
          "head variables of '" + vocab.LabelName(r.head) +
          "' must appear in the rule body (safety)");
    }
  }
  // Non-recursiveness.
  auto topo = TopologicalOrder();
  if (!topo.ok()) return topo.status();
  return Status::OK();
}

std::vector<LabelId> RegularQuery::InputLabels(const Vocabulary& vocab) const {
  std::set<LabelId> labels;
  for (const Rule& r : rules_) {
    for (const BodyAtom& a : r.body) {
      if (vocab.IsInputLabel(a.label)) labels.insert(a.label);
    }
  }
  return std::vector<LabelId>(labels.begin(), labels.end());
}

std::string RegularQuery::ToString(const Vocabulary& vocab) const {
  std::ostringstream os;
  for (const Rule& r : rules_) {
    os << vocab.LabelName(r.head) << "(" << r.head_src << ", " << r.head_trg
       << ") <- ";
    for (std::size_t i = 0; i < r.body.size(); ++i) {
      if (i > 0) os << ", ";
      const BodyAtom& a = r.body[i];
      os << vocab.LabelName(a.label);
      if (a.closure == ClosureKind::kPlus) os << "+";
      if (a.closure == ClosureKind::kStar) os << "*";
      os << "(" << a.src << ", " << a.trg << ")";
      if (a.IsClosure()) os << " as " << vocab.LabelName(a.alias);
    }
    os << "\n";
  }
  return os.str();
}

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses "name(var, var)" with optional +/* after the name; advances *pos.
struct ParsedAtom {
  std::string name;
  std::string src;
  std::string trg;
  ClosureKind closure = ClosureKind::kNone;
  std::string alias;  // empty if none
};

Result<ParsedAtom> ParseAtomText(std::string_view text, std::size_t* pos) {
  auto skip = [&] {
    while (*pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[*pos]))) {
      ++*pos;
    }
  };
  auto ident = [&]() -> Result<std::string> {
    skip();
    std::size_t start = *pos;
    while (*pos < text.size() && IsIdentChar(text[*pos])) ++*pos;
    if (*pos == start) {
      return Status::ParseError("expected identifier at offset " +
                                std::to_string(*pos));
    }
    return std::string(text.substr(start, *pos - start));
  };
  auto expect = [&](char c) -> Status {
    skip();
    if (*pos >= text.size() || text[*pos] != c) {
      return Status::ParseError(std::string("expected '") + c +
                                "' at offset " + std::to_string(*pos));
    }
    ++*pos;
    return Status::OK();
  };

  ParsedAtom atom;
  SGQ_ASSIGN_OR_RETURN(atom.name, ident());
  skip();
  if (*pos < text.size() && (text[*pos] == '+' || text[*pos] == '*')) {
    atom.closure =
        text[*pos] == '+' ? ClosureKind::kPlus : ClosureKind::kStar;
    ++*pos;
  }
  SGQ_RETURN_NOT_OK(expect('('));
  SGQ_ASSIGN_OR_RETURN(atom.src, ident());
  SGQ_RETURN_NOT_OK(expect(','));
  SGQ_ASSIGN_OR_RETURN(atom.trg, ident());
  SGQ_RETURN_NOT_OK(expect(')'));
  // Optional "as Alias".
  skip();
  if (*pos + 2 <= text.size() && text.substr(*pos, 2) == "as" &&
      (*pos + 2 == text.size() || !IsIdentChar(text[*pos + 2]))) {
    *pos += 2;
    SGQ_ASSIGN_OR_RETURN(atom.alias, ident());
  }
  return atom;
}

}  // namespace

Result<RegularQuery> ParseRq(std::string_view text, Vocabulary* vocab) {
  struct RawRule {
    ParsedAtom head;
    std::vector<ParsedAtom> body;
  };
  std::vector<RawRule> raw_rules;

  // Rules end at a newline or a ';' (so a one-line protocol command can
  // carry a multi-rule query); errors name the physical line.
  std::vector<std::pair<std::size_t, std::string>> rule_texts;
  std::size_t line_no = 0;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    ++line_no;
    const std::string_view trimmed = TrimString(raw_line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    for (const std::string& rule_text : SplitString(trimmed, ';')) {
      if (!TrimString(rule_text).empty()) {
        rule_texts.emplace_back(line_no, rule_text);
      }
    }
  }
  for (const auto& [rule_line, rule_text] : rule_texts) {
    line_no = rule_line;
    std::string_view line = TrimString(rule_text);
    // Split on "<-" or ":-".
    std::size_t arrow = line.find("<-");
    if (arrow == std::string_view::npos) arrow = line.find(":-");
    if (arrow == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": missing '<-'");
    }
    RawRule rule;
    {
      std::string_view head_text = line.substr(0, arrow);
      std::size_t pos = 0;
      auto head = ParseAtomText(head_text, &pos);
      if (!head.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  " (head): " + head.status().message());
      }
      rule.head = std::move(head).ValueOrDie();
      if (rule.head.closure != ClosureKind::kNone) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": rule head cannot carry closure");
      }
    }
    std::string_view body_text = line.substr(arrow + 2);
    std::size_t pos = 0;
    while (true) {
      auto atom = ParseAtomText(body_text, &pos);
      if (!atom.ok()) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  " (body): " + atom.status().message());
      }
      rule.body.push_back(std::move(atom).ValueOrDie());
      while (pos < body_text.size() &&
             std::isspace(static_cast<unsigned char>(body_text[pos]))) {
        ++pos;
      }
      if (pos >= body_text.size() || body_text[pos] == '.') break;
      if (body_text[pos] != ',') {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": expected ',' between atoms");
      }
      ++pos;
    }
    raw_rules.push_back(std::move(rule));
  }
  if (raw_rules.empty()) return Status::ParseError("no rules in query text");

  // Pass 1: intern all head names and closure aliases as derived labels.
  // Generated closure aliases are label-canonical: every `a+` atom maps to
  // the one alias `__tc_a` no matter which rule (or position) it appears
  // in, so the PATH operators compiled for equal closures share one
  // canonical PlanSignature — and therefore one physical operator — across
  // rules and across registered queries (core/engine.h).
  std::set<std::string> idb_names;
  for (const RawRule& r : raw_rules) idb_names.insert(r.head.name);
  for (RawRule& r : raw_rules) {
    for (ParsedAtom& a : r.body) {
      if (a.closure != ClosureKind::kNone && a.alias.empty()) {
        a.alias = "__tc_" + a.name;
      }
      if (!a.alias.empty()) idb_names.insert(a.alias);
    }
  }
  for (const std::string& name : idb_names) {
    SGQ_RETURN_NOT_OK(vocab->InternDerivedLabel(name).status());
  }

  // Pass 2: build the RegularQuery; unknown body labels become EDB.
  RegularQuery rq;
  for (const RawRule& raw : raw_rules) {
    Rule rule;
    SGQ_ASSIGN_OR_RETURN(rule.head, vocab->FindLabel(raw.head.name));
    rule.head_src = raw.head.src;
    rule.head_trg = raw.head.trg;
    for (const ParsedAtom& a : raw.body) {
      BodyAtom atom;
      auto found = vocab->FindLabel(a.name);
      if (found.ok()) {
        atom.label = *found;
      } else {
        SGQ_ASSIGN_OR_RETURN(atom.label, vocab->InternInputLabel(a.name));
      }
      atom.src = a.src;
      atom.trg = a.trg;
      atom.closure = a.closure;
      if (!a.alias.empty()) {
        SGQ_ASSIGN_OR_RETURN(atom.alias, vocab->FindLabel(a.alias));
      }
      rule.body.push_back(std::move(atom));
    }
    rq.AddRule(std::move(rule));
  }
  // The answer predicate: "Answer" or "Ans".
  for (const char* name : {"Answer", "Ans"}) {
    auto found = vocab->FindLabel(name);
    if (found.ok()) {
      rq.SetAnswer(*found);
      break;
    }
  }
  if (rq.answer() == kInvalidLabel) {
    return Status::ParseError(
        "query must define an 'Answer' (or 'Ans') rule");
  }
  SGQ_RETURN_NOT_OK(rq.Validate(*vocab));
  return rq;
}

}  // namespace sgq
