#ifndef TGRAPH_TQL_CANONICAL_H_
#define TGRAPH_TQL_CANONICAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "tql/ast.h"

namespace tgraph::tql {

/// \brief Deterministic re-printing of parsed TQL, used as the result-cache
/// key of tgraphd: two scripts that parse to the same plan — regardless of
/// whitespace, keyword case, comments, or redundant syntax — canonicalize
/// to the same string. The output re-parses to the same statements
/// (round-trip property), so a canonical form is its own fixed point.

/// One statement in canonical form (no trailing separator).
std::string Canonicalize(const Statement& statement);

/// A whole script: each statement canonicalized, joined with ";\n" and
/// terminated with ";". Fails if the script does not parse.
Result<std::string> CanonicalizeScript(const std::string& script);

/// The same for an already parsed script (tgzd parses each QUERY once).
std::string CanonicalizeScript(const std::vector<Statement>& statements);

/// True when executing `statement` neither writes outside the interpreter
/// environment nor depends on anything but the named inputs — the
/// condition under which a script's output may be served from the result
/// cache. STORE writes to the filesystem, so scripts containing it are
/// never cached (they must re-execute for their side effect).
bool IsCacheable(const Statement& statement);

/// True when every statement of the script is cacheable.
bool IsCacheableScript(const std::vector<Statement>& statements);

}  // namespace tgraph::tql

#endif  // TGRAPH_TQL_CANONICAL_H_
