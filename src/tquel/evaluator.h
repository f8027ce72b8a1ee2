#ifndef TEMPORADB_TQUEL_EVALUATOR_H_
#define TEMPORADB_TQUEL_EVALUATOR_H_

#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "rel/relation.h"
#include "temporal/read_snapshot.h"
#include "temporal/stored_relation.h"
#include "tquel/analyzer.h"
#include "tquel/ast.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace tquel {

/// Execution environment supplied by the database facade.
struct EvalContext {
  /// Resolves a relation name to its stored relation.
  std::function<Result<StoredRelation*>(std::string_view)> get_relation;
  /// DDL hooks (the facade owns catalog and relation map).
  std::function<Status(const CreateStmt&)> create_relation;
  std::function<Status(std::string_view)> drop_relation;
  /// `create index on relation (attribute)`.
  std::function<Status(std::string_view, std::string_view)> create_index;
  /// The session's range-variable table (mutated by `range of`).
  std::map<std::string, std::string>* ranges = nullptr;
  /// Named results of `retrieve into`.
  std::map<std::string, Rowset>* derived = nullptr;
  /// Chronon for "now" defaults and DML timestamps.
  TxnManager* txn_manager = nullptr;
  /// The active transaction for DML statements (the facade auto-wraps when
  /// running in auto-commit mode).
  Transaction* txn = nullptr;
  /// When set, retrieves run snapshot-isolated against this pin: every
  /// participant scan carries the pin (see `ScanSpec::snapshot`), index
  /// probe paths are disabled (the mutable index structures are not safe
  /// off the writer thread), and results reflect exactly the commits
  /// published at pin time.  Only retrieve statements may run this way
  /// (`Database::QueryAtSnapshot` enforces that).
  const ReadSnapshot* snapshot = nullptr;
};

/// What a statement produced.
struct ExecResult {
  enum class Kind {
    kNone,     ///< DDL / range: nothing to show.
    kRows,     ///< retrieve (and show): a rowset.
    kCount,    ///< DML: tuples affected.
  };
  Kind kind = Kind::kNone;
  Rowset rows;
  size_t count = 0;
  std::string message;  ///< Human-readable summary.
};

/// Executes one parsed statement.  DML requires `ctx.txn` to be active;
/// queries and DDL do not touch it.
Result<ExecResult> Execute(const Statement& stmt, EvalContext& ctx);

/// Evaluates an analyzed retrieve (exposed for tests and benches that want
/// to reuse a bound query).
Result<Rowset> EvaluateRetrieve(const BoundRetrieve& bound,
                                const EvalContext& ctx);

}  // namespace tquel
}  // namespace temporadb

#endif  // TEMPORADB_TQUEL_EVALUATOR_H_
