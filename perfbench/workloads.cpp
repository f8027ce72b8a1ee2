#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "core/database.h"
#include "harness.h"
#include "temporal/partition.h"
#include "tquel/analyzer.h"
#include "tquel/evaluator.h"
#include "tquel/parser.h"
#include "txn/clock.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;
using temporadb::Chronon;
using temporadb::Database;
using temporadb::DatabaseOptions;
using temporadb::ManualClock;
using temporadb::Random;
using temporadb::ReadSnapshot;
using temporadb::RelationInfo;
using temporadb::ScanStats;
using temporadb::StoredRelation;
using temporadb::workload::QueryClass;
using temporadb::workload::WorkloadGenerator;
using temporadb::workload::WorkloadOp;
using temporadb::workload::WorkloadOptions;

// --- Workload shapes ------------------------------------------------------

// The history is loaded until it reaches a size, not for a number of ops:
// how many versions an op creates depends on the seed (a retroactive
// replace splits every overlapping version of a hot key), and what a query
// costs depends on the versions it meets.  Loading to a size keeps the
// query cost, and so the figures, alike across seeds.
struct Shape {
  const char* name;
  size_t employees;
  /// Load until `salaries` holds this many versions...
  uint64_t min_salary_versions;
  /// ...and (current salaries) x (live assignments) reaches this: the
  /// pairs a salary x assignment when-join enumerates.
  uint64_t min_join_pairs;
  /// A round's writer applies the stream until `salaries` holds this many
  /// versions; 0 for a read-only workload.  Ending rounds at a size, like
  /// the load, keeps the database a round checkpoints alike across seeds.
  uint64_t round_salary_versions;
  /// Set-ups per run: the run reports their median time.
  size_t setup_reps;
  /// Checkpoint-and-reopen cycles after a read-only timed phase (a
  /// workload with rounds does one per round).
  size_t reopen_reps;
  std::vector<QueryClass> classes;
  /// Distinct queries a client cycles through.  Odd, so that a traced run,
  /// which traces every other request, traces every query of the list.
  size_t list_len;
};

// Why these three: audit_deep is dominated by the temporal scan layer
// (snapshot batch scans over several sealed partitions, pruning, kernels);
// when_join by the TQuel evaluator's join enumeration; payroll_oltp is the
// only one whose timed phase writes, so the parser, DML update algebra,
// version append/close/seal, WAL group commit and MVCC publish under live
// pins all sit on its measured path.  Each is the control for the others.
const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {.name = "audit_deep",
       .employees = 1000,
       .min_salary_versions = 17000,
       .min_join_pairs = 0,
       .round_salary_versions = 0,
       .setup_reps = 7,
       .reopen_reps = 20,
       .classes = {QueryClass::kAudit, QueryClass::kStab},
       .list_len = 1019},
      {.name = "when_join",
       .employees = 128,
       .min_salary_versions = 0,
       .min_join_pairs = 250000,
       .round_salary_versions = 0,
       .setup_reps = 25,
       .reopen_reps = 50,
       .classes = {QueryClass::kWhenJoin},
       .list_len = 101},
      {.name = "payroll_oltp",
       .employees = 500,
       .min_salary_versions = 10000,
       .min_join_pairs = 0,
       .round_salary_versions = 15000,
       .setup_reps = 3,
       .reopen_reps = 0,
       .classes = {QueryClass::kAudit, QueryClass::kStab},
       .list_len = 509},
  };
  return shapes;
}

// Digests recorded for the default seed.  `stream` pins the generated
// statements (workload::DigestOp chain), `reads` the answers to the query
// list on the quiesced database, `history` the full-history retrieves
// after set-up (and, for payroll_oltp, after the first round).
constexpr uint64_t kDefaultSeed = 42;
struct Recorded {
  const char* workload;
  uint64_t stream;
  uint64_t reads;
  uint64_t history;
};
constexpr Recorded kRecorded[] = {
    {"audit_deep", 5714905853775803574ULL, 12335538262640305844ULL,
     1304530720673646716ULL},
    {"when_join", 3644339221127270068ULL, 17626294519795417065ULL,
     7452348062170195930ULL},
    {"payroll_oltp", 2106200278929816516ULL, 1361214005275118100ULL,
     14741436734907077438ULL},
};

// The generator's stream is drawn lazily; a load that has not reached its
// size after this many ops is an error.
constexpr size_t kMaxStreamOps = 100000;
// Ops drawn for the rounds; a round that has not reached its size after
// them is an error.
constexpr size_t kRoundStreamOps = 12000;
constexpr size_t kClients = 2;
// A payroll writer applies deferred in-place corrections every this many
// ops, with the readers paused (MVCC fences corrections off from pins).
constexpr size_t kMaintenanceEvery = 100;
// Queries of the list also run on the direct (non-snapshot) path.
constexpr size_t kDirectSamples = 16;
// In the timed phase a client re-checks two of every this many results
// against the reference answer: one untraced and, in a traced run, one
// traced request.
constexpr uint64_t kCheckEvery = 8;
// The timed phase runs on past --seconds until every query of the list (and,
// with rounds, every statement of a round) has this many samples...
constexpr size_t kMinPerKey = 5;
// ...but stops at the latest after this many times --seconds, so that a
// run ends well within three minutes.
constexpr double kMaxStretch = 3;
// Where the tail that query_tail_us averages begins.
constexpr double kTail = 0.90;

const char* const kHistoryQueries[] = {
    "retrieve (d.dept, d.head)",
    "retrieve (hc.dept, hc.n) as of \"beginning\" through \"inf\"",
    "retrieve (a.emp, a.dept)",
    "retrieve (s.emp, s.amount) as of \"beginning\" through \"inf\"",
};

// --- Run environment ------------------------------------------------------

struct Env {
  Env(const Shape& s, const RunArgs& a, RunResult* r)
      : shape(s), args(a), result(r), fs(FileSystem::Default()) {}

  void Fail(const std::string& what) {
    ++result->failed;
    if (++failures_noted <= 8) result->notes.push_back("FAILED: " + what);
  }

  WorkloadOptions GenOptions() const {
    WorkloadOptions wo;
    wo.seed = args.seed;
    wo.employees = shape.employees;
    wo.ops = kMaxStreamOps;
    return wo;
  }

  std::string Path(const std::string& leaf) const {
    return args.run_dir + "/" + leaf;
  }

  Result<std::unique_ptr<Database>> Open(const std::string& path,
                                         bool sync_commits = true) {
    DatabaseOptions o;
    o.path = path;
    o.sync_commits = sync_commits;
    o.clock = &clock;
    o.fs = &fs;
    return Database::Open(o);
  }

  const Shape& shape;
  const RunArgs& args;
  RunResult* result;
  CountingFileSystem fs;
  ManualClock clock;
  size_t failures_noted = 0;
  // Spans of set-up, checkpoint and recovery (writer-thread work).
  TraceBuffer main_trace;
  uint64_t next_request = 1;
};

const Recorded* RecordedFor(const Env& env) {
  if (env.args.seed != kDefaultSeed) return nullptr;
  for (const Recorded& r : kRecorded) {
    if (env.shape.name == std::string(r.workload)) return &r;
  }
  return nullptr;
}

void CheckRecorded(Env& env, const char* what, uint64_t got,
                   uint64_t recorded) {
  env.result->notes.push_back(std::string(what) + "_digest " +
                              std::to_string(got));
  if (got != recorded) {
    env.Fail(std::string(what) + " digest " + std::to_string(got) +
             " differs from the one recorded for seed 42 (" +
             std::to_string(recorded) + ")");
  }
}

// --- Writes ---------------------------------------------------------------

// The span a statement's execution is recorded under, by DML shape.
const char* ExecSpanName(const std::string& stmt) {
  const auto starts = [&stmt](const char* p) { return stmt.rfind(p, 0) == 0; };
  if (starts("append")) return "core.append";
  if (starts("replace hc") || starts("delete hc")) {
    return "core.rollback_update";
  }
  if (starts("replace d ")) return "core.static_update";
  const bool valid = stmt.find(" valid from ") != std::string::npos;
  if (valid && starts("replace")) return "core.replace_valid";
  if (valid && starts("delete")) return "core.delete_valid";
  return "core.statement";
}

// Applies one op through Database::Execute at the op's transaction day and
// records its latency under `key`, less the time its syncs waited on the
// device: a shared machine's fsync latency drifts with other tenants' I/O
// far more than anything the program does, so the sync counts and their
// time are reported apart (storage.*).  A traced op is also parsed once on
// its own, so the parser's share of a write shows as a span.
void ApplyOp(Env& env, Database* db, const WorkloadOp& op, TraceBuffer* trace,
             KeyedSamples* latency_us, size_t key) {
  env.clock.SetTime(Chronon(op.day));
  ++env.result->attempted;
  int64_t ns = 0;
  const auto execute = [&] {
    ScopedSpan span(ExecSpanName(op.stmt));
    const int64_t sync0 = CountingFileSystem::ThreadSyncNs();
    const int64_t t0 = NowNs();
    Result<temporadb::tquel::ExecResult> r = db->Execute(op.stmt);
    ns = NowNs() - t0 - (CountingFileSystem::ThreadSyncNs() - sync0);
    return r.status();
  };
  Status st;
  if (trace != nullptr) {
    trace->BeginRequest(env.next_request++);
    {
      ScopedSpan request("request.write");
      {
        ScopedSpan parse("tquel.parse");
        (void)temporadb::tquel::Parse(op.stmt);
      }
      st = execute();
    }
    TraceBuffer::EndRequest();
  } else {
    st = execute();
  }
  if (!st.ok()) {
    env.Fail("statement rejected [" + op.stmt + "]: " + st.ToString());
  } else if (latency_us != nullptr) {
    latency_us->Add(key, static_cast<double>(ns) / 1e3);
  }
}

struct Loaded {
  std::unique_ptr<Database> db;
  uint64_t stream_digest = temporadb::workload::kDigestSeed;
  int64_t horizon = 0;                ///< Last transaction day of the load.
  std::vector<WorkloadOp> round_ops;  ///< The stream the rounds draw on.
};

// Builds the workload's history in a new database at `path`: schema, seed
// corpus, then DML ops until the history reaches the shape's size, each an
// auto-committed Execute; a workload with rounds keeps the next
// kRoundStreamOps ops for them.
// This is a bulk load: commits are not synced one by one, and the
// checkpoint that ends a set-up makes the history durable.  (A shared
// machine's fsync latency drifts far more than its CPU speed, and would
// swamp set-up time.)  With `trace`, every other statement is traced.
Result<Loaded> LoadHistory(Env& env, const std::string& path,
                           TraceBuffer* trace,
                           KeyedSamples* latency_us) {
  Loaded out;
  TDB_ASSIGN_OR_RETURN(out.db, env.Open(path, /*sync_commits=*/false));
  WorkloadGenerator gen(env.GenOptions());
  size_t k = 0;
  const auto apply = [&](const WorkloadOp& op) {
    out.stream_digest = temporadb::workload::DigestOp(out.stream_digest, op);
    ApplyOp(env, out.db.get(), op, k % 2 == 1 ? trace : nullptr, latency_us,
            k);
    ++k;
  };
  for (const WorkloadOp& op : temporadb::workload::WorkloadDdl(gen.options())) {
    apply(op);
  }
  for (const WorkloadOp& op : gen.SeedOps()) apply(op);
  TDB_ASSIGN_OR_RETURN(StoredRelation * salaries,
                       out.db->GetRelation("salaries"));
  TDB_ASSIGN_OR_RETURN(StoredRelation * assignments,
                       out.db->GetRelation("assignments"));
  const auto big_enough = [&] {
    const temporadb::VersionStore* s = salaries->store();
    const temporadb::VersionStore* a = assignments->store();
    return s->version_count() >= env.shape.min_salary_versions &&
           s->current_count() * a->live_count() >= env.shape.min_join_pairs;
  };
  WorkloadOp op;
  while (!big_enough()) {
    if (!gen.Next(&op)) {
      return Status::Internal("stream ended before the history was loaded");
    }
    apply(op);
  }
  out.horizon = gen.day();
  while (env.shape.round_salary_versions > 0 &&
         out.round_ops.size() < kRoundStreamOps && gen.Next(&op)) {
    out.stream_digest = temporadb::workload::DigestOp(out.stream_digest, op);
    out.round_ops.push_back(op);
  }
  return out;
}

// Range declarations live only in an open database: a reopened one needs
// them again.
Status DeclareRanges(Env& env, Database* db) {
  for (const WorkloadOp& op :
       temporadb::workload::WorkloadDdl(env.GenOptions())) {
    if (op.stmt.rfind("range of", 0) == 0) {
      TDB_RETURN_IF_ERROR(db->Execute(op.stmt).status());
    }
  }
  return Status::OK();
}

// --- Reads ----------------------------------------------------------------

// One snapshot read: pin, evaluate, release.  Untraced, this is
// Database::BeginReadSnapshot + QueryAtSnapshot.  Traced, the steps of
// QueryAtSnapshot, checks included, run one by one through the public tquel
// API so that each layer gets its own span.  ReferencePass checks that both
// paths give the same answers.
Result<Rowset> SnapshotQuery(Database* db, const std::string& query) {
  if (TraceBuffer::Current() == nullptr) {
    TDB_ASSIGN_OR_RETURN(ReadSnapshot snap, db->BeginReadSnapshot());
    return db->QueryAtSnapshot(snap, query);
  }
  namespace tquel = temporadb::tquel;
  Result<ReadSnapshot> pinned = [&] {
    ScopedSpan span("temporal.pin");
    return db->BeginReadSnapshot();
  }();
  if (!pinned.ok()) return pinned.status();
  const ReadSnapshot& snap = *pinned;
  if (!snap.valid()) return Status::InvalidArgument("snapshot is not pinned");
  Result<std::vector<tquel::Statement>> stmts = [&] {
    ScopedSpan span("tquel.parse");
    return tquel::Parse(query);
  }();
  if (!stmts.ok()) return stmts.status();
  if (stmts->size() != 1 ||
      !std::holds_alternative<tquel::RetrieveStmt>((*stmts)[0])) {
    return Status::InvalidArgument("not a single retrieve: " + query);
  }
  const auto& stmt = std::get<tquel::RetrieveStmt>((*stmts)[0]);
  if (stmt.into.has_value()) {
    return Status::InvalidArgument("retrieve into on a snapshot: " + query);
  }
  const auto get_relation =
      [&snap](std::string_view name) -> Result<StoredRelation*> {
    const StoredRelation* rel = snap.relation(name);
    if (rel == nullptr) {
      return Status::NotFound("no such relation: " + std::string(name));
    }
    return const_cast<StoredRelation*>(rel);
  };
  const std::map<std::string, std::string> ranges = snap.ranges();
  tquel::AnalyzerContext actx;
  actx.get_relation = get_relation;
  actx.ranges = &ranges;
  Result<tquel::BoundRetrieve> bound = [&] {
    ScopedSpan span("tquel.analyze");
    return tquel::AnalyzeRetrieve(stmt, actx);
  }();
  if (!bound.ok()) return bound.status();
  tquel::EvalContext ctx;
  ctx.get_relation = get_relation;
  ctx.snapshot = &snap;
  ScopedSpan span("tquel.eval");
  return tquel::EvaluateRetrieve(*bound, ctx);
}

// The class of query `i` of the list: the shape's classes in turn.
QueryClass ClassOf(const Shape& shape, size_t i) {
  return shape.classes[i % shape.classes.size()];
}

std::vector<std::string> MakeQueryList(const Env& env, int64_t horizon) {
  const WorkloadOptions wo = env.GenOptions();
  Random rng(env.args.seed * 0x2545F4914F6CDD1DULL + 0x51ED);
  std::vector<std::string> list;
  for (size_t i = 0; i < env.shape.list_len; ++i) {
    list.push_back(temporadb::workload::MakeQuery(ClassOf(env.shape, i), &rng,
                                                  wo, horizon));
  }
  return list;
}

void InstallScanStats(Database* db, ScanStats* stats) {
  for (const RelationInfo& info : db->ListRelations()) {
    Result<StoredRelation*> rel = db->GetRelation(info.name);
    if (rel.ok()) (*rel)->store()->set_scan_stats(stats);
  }
}

struct Reference {
  std::vector<uint64_t> digest;  ///< Per query of the list.
  uint64_t combined = 0;
  uint64_t rows_returned = 0;
  uint64_t considered = 0, pruned = 0, rows_scanned = 0, morsels = 0;
};

// Answers every query of the list once on the quiesced database, single
// threaded, with the scan counters on: the reference answers for the timed
// phase, and scan counts that repeat exactly for a seed.  Every query also
// runs on the traced path, and a sample on the direct path; both must agree
// with the snapshot answer.
Reference ReferencePass(Env& env, Database* db,
                        const std::vector<std::string>& list) {
  Reference ref;
  ScanStats stats;
  InstallScanStats(db, &stats);
  for (size_t i = 0; i < list.size(); ++i) {
    ++env.result->attempted;
    Result<Rowset> r = SnapshotQuery(db, list[i]);
    if (!r.ok()) {
      env.Fail("query failed [" + list[i] + "]: " + r.status().ToString());
      ref.digest.push_back(0);
      continue;
    }
    ref.digest.push_back(ResultDigest(*r));
    ref.combined = CombineKeyed(ref.combined, i, ref.digest.back());
    ref.rows_returned += r->size();
  }
  InstallScanStats(db, nullptr);
  ref.considered = stats.considered();
  ref.pruned = stats.pruned_tt() + stats.pruned_vt() + stats.pruned_snapshot();
  ref.rows_scanned = stats.rows();
  ref.morsels = stats.morsels();
  if (ref.considered != ref.pruned + stats.scanned()) {
    env.Fail("scan counters: considered != pruned + scanned");
  }
  TraceBuffer scratch;
  for (size_t i = 0; i < list.size(); ++i) {
    ++env.result->attempted;
    scratch.BeginRequest(i);
    Result<Rowset> traced = SnapshotQuery(db, list[i]);
    TraceBuffer::EndRequest();
    if (!traced.ok() || ResultDigest(*traced) != ref.digest[i]) {
      env.Fail("traced and untraced answers differ [" + list[i] + "]");
    }
  }
  const size_t step = std::max<size_t>(1, list.size() / kDirectSamples);
  for (size_t i = 0; i < list.size(); i += step) {
    ++env.result->attempted;
    Result<Rowset> direct = db->Query(list[i]);
    if (!direct.ok() || ResultDigest(*direct) != ref.digest[i]) {
      env.Fail("direct and snapshot answers differ [" + list[i] + "]");
    }
  }
  return ref;
}

// Full-history digest: every version of every relation, through TQuel.
Result<uint64_t> HistoryDigest(Database* db, uint64_t* rows) {
  uint64_t h = 0;
  *rows = 0;
  for (size_t i = 0; i < std::size(kHistoryQueries); ++i) {
    TDB_ASSIGN_OR_RETURN(Rowset r, db->Query(kHistoryQueries[i]));
    h = CombineKeyed(h, i, ResultDigest(r));
    *rows += r.size();
  }
  return h;
}

// Lets a writer pause the readers for a maintenance window, and stops them.
class ReaderGate {
 public:
  /// Blocks while paused; false once stopped.
  bool Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !paused_ || stopped_; });
    if (stopped_) return false;
    ++active_;
    return true;
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--active_ == 0) cv_.notify_all();
  }
  /// Returns once no reader is inside.
  void Pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.wait(lock, [this] { return active_ == 0; });
  }
  void Resume() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    cv_.notify_all();
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool stopped_ = false;
  int active_ = 0;
};

struct ClientOut {
  KeyedSamples latency_us;  ///< Untraced requests, by list index.
  std::vector<double> traced_latency_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::atomic<uint64_t> done{0};
  TraceBuffer trace;
};

struct ClientSpec {
  /// Read after each ReaderGate::Enter: a paused phase may swap in a
  /// reopened database.
  const std::unique_ptr<Database>* db;
  const std::vector<std::string>* list;
  /// Reference digests; null while a writer moves the state.
  const std::vector<uint64_t>* expected;
  bool trace;
  ReaderGate* gate;
};

// A closed-loop reader: sends its next query when the last one returned,
// cycling through the list from `start`.  A traced run traces every other
// request.
void ClientLoop(const ClientSpec& spec, size_t start, uint64_t request_base,
                ClientOut* out) {
  const size_t n = spec.list->size();
  for (uint64_t k = 0;; ++k) {
    if (!spec.gate->Enter()) break;
    const size_t i = (start + k) % n;
    const bool traced = spec.trace && k % 2 == 1;
    if (traced) out->trace.BeginRequest(request_base + k);
    const int64_t t0 = NowNs();
    Result<Rowset> r = [&] {
      ScopedSpan span("request.read");
      return SnapshotQuery(spec.db->get(), (*spec.list)[i]);
    }();
    const double us = static_cast<double>(NowNs() - t0) / 1e3;
    if (traced) TraceBuffer::EndRequest();
    spec.gate->Leave();
    ++out->attempted;
    if (!r.ok()) {
      ++out->failed;
      if (out->errors.size() < 4) {
        out->errors.push_back("query failed [" + (*spec.list)[i] +
                              "]: " + r.status().ToString());
      }
    } else if (spec.expected != nullptr && k % kCheckEvery < 2 &&
               ResultDigest(*r) != (*spec.expected)[i]) {
      ++out->failed;
      if (out->errors.size() < 4) {
        out->errors.push_back("wrong answer [" + (*spec.list)[i] + "]");
      }
    } else if (traced) {
      out->traced_latency_us.push_back(us);
    } else {
      out->latency_us.Add(i, us);
    }
    out->done.fetch_add(1, std::memory_order_relaxed);
  }
}

// Starts `n` readers, each at its own offset in the list; their outputs
// are appended to `outs`.
std::vector<std::thread> StartClients(
    const ClientSpec& spec, size_t n,
    std::vector<std::unique_ptr<ClientOut>>* outs, uint64_t* next_request) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    outs->push_back(std::make_unique<ClientOut>());
    const size_t start = c * spec.list->size() / n;
    const uint64_t base = *next_request;
    *next_request += uint64_t{1} << 40;
    threads.emplace_back([&spec, start, base, out = outs->back().get()] {
      ClientLoop(spec, start, base, out);
    });
  }
  return threads;
}

// --- Durability -----------------------------------------------------------

// Seconds since `t0_ns`, less the time this thread spent inside the file
// system since `fs0_ns`.  On a small history about half of a checkpoint's
// time outside its syncs goes to file system calls (creating, writing,
// renaming and removing files), and on a shared machine their latency
// drifts with other tenants' I/O far more than anything the program does.
// So the checkpoint and recovery metrics leave it out; storage.* report
// the file system's side apart.
double SecondsOutsideFs(int64_t t0_ns, int64_t fs0_ns) {
  const int64_t in_fs = CountingFileSystem::ThreadFsNs() - fs0_ns;
  return static_cast<double>(NowNs() - t0_ns - in_fs) / 1e9;
}

// Versions stored over all relations: what a checkpoint writes and a
// reopen reads back.
uint64_t StoredVersions(Database* db) {
  uint64_t n = 0;
  for (const RelationInfo& info : db->ListRelations()) {
    Result<StoredRelation*> rel = db->GetRelation(info.name);
    if (rel.ok()) n += (*rel)->store()->version_count();
  }
  return n;
}

// Checkpoint and reopen times are kept per stored version: how many
// versions a history of a given shape holds varies by seed, and the time
// follows it.
struct Durability {
  std::vector<double> checkpoint_ns_per_version;
  std::vector<double> recovery_ns_per_version;
  std::vector<double> checkpoint_fs_us;  ///< Time inside the file system.
  std::vector<double> recovery_fs_us;
  IoSnapshot checkpoint_io;  ///< Of the first checkpoint.
  IoSnapshot recovery_io;    ///< Of the first reopen.
  bool measured = false;
};

// Checkpoints `*db`, closes it, reopens it from `path`, and checks that the
// reopened database answers the full-history retrieves as before.  Returns
// the history digest.  If the reopen fails, `*db` is left null.
uint64_t CheckpointAndReopen(Env& env, std::unique_ptr<Database>* db,
                             const std::string& path, Durability* out) {
  if (*db == nullptr) return 0;
  uint64_t rows_before = 0;
  ++env.result->attempted;
  Result<uint64_t> before = HistoryDigest(db->get(), &rows_before);
  if (!before.ok()) {
    env.Fail("full-history retrieve failed: " + before.status().ToString());
    return 0;
  }
  const double versions = static_cast<double>(StoredVersions(db->get()));
  TraceBuffer* trace = env.args.trace ? &env.main_trace : nullptr;
  if (trace != nullptr) trace->BeginRequest(env.next_request++);
  IoSnapshot io0 = env.fs.Snapshot();
  int64_t t0 = NowNs();
  int64_t fs0 = CountingFileSystem::ThreadFsNs();
  Status st;
  {
    ScopedSpan span("core.checkpoint");
    st = (*db)->Checkpoint();
  }
  const double ckpt_s = SecondsOutsideFs(t0, fs0);
  const double ckpt_fs_us =
      static_cast<double>(CountingFileSystem::ThreadFsNs() - fs0) / 1e3;
  const IoSnapshot ckpt_io = env.fs.Snapshot() - io0;
  if (trace != nullptr) TraceBuffer::EndRequest();
  if (!st.ok()) {
    env.Fail("checkpoint failed: " + st.ToString());
    return 0;
  }
  db->reset();
  if (trace != nullptr) trace->BeginRequest(env.next_request++);
  io0 = env.fs.Snapshot();
  t0 = NowNs();
  fs0 = CountingFileSystem::ThreadFsNs();
  Result<std::unique_ptr<Database>> reopened = [&] {
    ScopedSpan span("core.open");
    return env.Open(path);
  }();
  const double open_s = SecondsOutsideFs(t0, fs0);
  const double open_fs_us =
      static_cast<double>(CountingFileSystem::ThreadFsNs() - fs0) / 1e3;
  const IoSnapshot open_io = env.fs.Snapshot() - io0;
  if (trace != nullptr) TraceBuffer::EndRequest();
  if (!reopened.ok()) {
    env.Fail("reopen failed: " + reopened.status().ToString());
    return 0;
  }
  *db = std::move(*reopened);
  if (Status s = DeclareRanges(env, db->get()); !s.ok()) {
    env.Fail("range declarations after reopen failed: " + s.ToString());
    return 0;
  }
  uint64_t rows_after = 0;
  Result<uint64_t> after = HistoryDigest(db->get(), &rows_after);
  if (!after.ok() || *after != *before || rows_after != rows_before) {
    env.Fail("reopened database answers the full history differently");
  }
  if (!out->measured) {
    out->checkpoint_io = ckpt_io;
    out->recovery_io = open_io;
    out->measured = true;
    env.result->notes.push_back("history_rows " + std::to_string(rows_before));
  }
  out->checkpoint_ns_per_version.push_back(ckpt_s * 1e9 / versions);
  out->recovery_ns_per_version.push_back(open_s * 1e9 / versions);
  out->checkpoint_fs_us.push_back(ckpt_fs_us);
  out->recovery_fs_us.push_back(open_fs_us);
  return *before;
}

// --- Metrics --------------------------------------------------------------

struct Measured {
  std::vector<double> setup_s;
  KeyedSamples query_us;  ///< Untraced, by list index.
  std::vector<double> traced_query_us;
  double query_phase_s = 0;
  uint64_t queries = 0;
  KeyedSamples write_us;  ///< By statement index in the load or round.
  IoSnapshot write_io;  ///< Over one deterministic stretch of writes...
  uint64_t write_io_ops = 0;  ///< ...of this many statements.
  Durability durability;
  Reference ref;
  uint64_t versions = 0;
  uint64_t sealed_partitions = 0;
  uint64_t store_bytes = 0;  ///< VersionStore::ApproximateBytes, summed.
  std::vector<std::unique_ptr<ClientOut>> clients;
};

// Folds finished clients into the totals.
void Collect(Env& env, size_t first_client, Measured* m) {
  for (size_t c = first_client; c < m->clients.size(); ++c) {
    ClientOut& o = *m->clients[c];
    m->query_us.Merge(o.latency_us);
    m->traced_query_us.insert(m->traced_query_us.end(),
                              o.traced_latency_us.begin(),
                              o.traced_latency_us.end());
    m->queries += o.attempted - o.failed;
    env.result->attempted += o.attempted;
    env.result->failed += o.failed;
    for (const std::string& e : o.errors) {
      if (++env.failures_noted <= 8) {
        env.result->notes.push_back("FAILED: " + e);
      }
    }
  }
}

void CountStore(Database* db, Measured* m) {
  for (const RelationInfo& info : db->ListRelations()) {
    Result<StoredRelation*> rel = db->GetRelation(info.name);
    if (!rel.ok()) continue;
    m->versions += (*rel)->store()->version_count();
    m->store_bytes += (*rel)->store()->ApproximateBytes();
    m->sealed_partitions += (*rel)->store()->sealed_partition_count();
  }
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string FormatPercentile(const std::optional<double>& v) {
  return v ? std::to_string(*v) : "n/a";
}

// Latency metrics aggregate over keys (the queries of the list, the
// statements of the stream) each key's median latency over the run.  Each
// key runs many times, spread over the run, so its median holds while a
// shared machine slows one processor or another for seconds at a time;
// percentiles over raw samples, printed among the notes, do not.  Over the
// keys the metrics take means, not percentiles: the list mixes query shapes
// of very different cost, and a percentile that falls between two shapes
// jumps from one to the other as a seed shifts the mix by a few queries.
// The tail is the mean of the costliest tenth (a p99 would need 1000 keys).
bool EndToEndMetrics(const Env& env, const Measured& m, RunResult* r) {
  const std::vector<double> q = m.query_us.SortedKeyMedians();
  const std::vector<double> w = m.write_us.SortedKeyMedians();
  const std::optional<double> q_tail = TailMean(q, kTail);
  if (!q_tail) {
    r->error = "too few keys for a percentile: " + std::to_string(q.size()) +
               " queries";
    return false;
  }
  r->metrics = {
      {"setup_s", Median(m.setup_s), "s"},
      {"query_mean_us", Mean(q), "us"},
      {"query_tail_us", *q_tail, "us"},
      {"checkpoint_nofs_ns_per_version",
       Median(m.durability.checkpoint_ns_per_version), "ns"},
      {"recovery_nofs_ns_per_version",
       Median(m.durability.recovery_ns_per_version), "ns"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  r->notes.push_back(
      "samples: " + std::to_string(m.query_us.count()) + " queries over " +
      std::to_string(q.size()) + " distinct, " +
      std::to_string(m.write_us.count()) + " statements over " +
      std::to_string(w.size()) + " distinct, " +
      std::to_string(m.setup_s.size()) + " set-ups, " +
      std::to_string(m.durability.checkpoint_ns_per_version.size()) +
      " checkpoints and reopens");
  const std::vector<double> qa = m.query_us.SortedAll();
  const std::vector<double> wa = m.write_us.SortedAll();
  double write_s = 0;
  for (double us : wa) write_s += us / 1e6;
  r->notes.push_back(
      "over keys: query p50_us=" + FormatPercentile(TailPercentile(q, 0.5)) +
      " p90_us=" + FormatPercentile(TailPercentile(q, 0.9)) +
      "; write p50_us=" + FormatPercentile(TailPercentile(w, 0.5)) +
      " p90_us=" + FormatPercentile(TailPercentile(w, 0.9)));
  r->notes.push_back(
      "raw samples: queries_per_s=" +
      std::to_string(Ratio(m.queries, m.query_phase_s)) +
      " query p50_us=" + FormatPercentile(TailPercentile(qa, 0.50)) +
      " p99_us=" + FormatPercentile(TailPercentile(qa, 0.99)) +
      "; write p50_us=" + FormatPercentile(TailPercentile(wa, 0.50)) +
      " p99_us=" + FormatPercentile(TailPercentile(wa, 0.99)) +
      " ops_per_s=" + std::to_string(Ratio(wa.size(), write_s)));
  for (const QueryClass cls : env.shape.classes) {
    KeyedSamples of_class;
    for (size_t i = 0; i < m.query_us.keys(); ++i) {
      if (ClassOf(env.shape, i) != cls) continue;
      for (double v : m.query_us.key(i)) of_class.Add(i, v);
    }
    const std::vector<double> km = of_class.SortedKeyMedians();
    const std::vector<double> all = of_class.SortedAll();
    r->notes.push_back(
        std::string(temporadb::workload::QueryClassName(cls)) +
        ": key p50_us=" + FormatPercentile(TailPercentile(km, 0.50)) +
        " key p90_us=" + FormatPercentile(TailPercentile(km, 0.90)) +
        "; raw n=" + std::to_string(all.size()) +
        " p50_us=" + FormatPercentile(TailPercentile(all, 0.50)) +
        " p99_us=" + FormatPercentile(TailPercentile(all, 0.99)));
  }
  r->notes.push_back("failed_frac " +
                     std::to_string(Ratio(r->failed, r->attempted)));
  return true;
}

std::vector<const TraceBuffer*> Traces(const Env& env, const Measured& m) {
  std::vector<const TraceBuffer*> traces = {&env.main_trace};
  for (const auto& c : m.clients) traces.push_back(&c->trace);
  return traces;
}

void PerLayerMetrics(const Env& env, const Measured& m, RunResult* r) {
  const std::vector<const TraceBuffer*> traces = Traces(env, m);
  std::map<std::string, SelfTime> self;
  for (const TraceBuffer* t : traces) AccumulateSelfTimes(t->spans(), &self);
  const auto mean_us = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.MeanUs();
  };
  SelfTime engine;
  for (const auto& [name, t] : self) {
    if (name.rfind("core.", 0) == 0 && name != "core.checkpoint" &&
        name != "core.open") {
      engine.calls += t.calls;
      engine.self_ns += t.self_ns;
    }
  }
  const Reference& ref = m.ref;
  const IoSnapshot& wio = m.write_io;
  const double overhead_pct =
      m.query_us.count() == 0 || m.traced_query_us.empty()
          ? 0.0
          : 100.0 * (Median(m.traced_query_us) /
                         Median(m.query_us.SortedAll()) -
                     1.0);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  r->metrics = {
      {"tquel.parse_us", mean_us("tquel.parse"), "us"},
      {"tquel.analyze_us", mean_us("tquel.analyze"), "us"},
      {"tquel.eval_us", mean_us("tquel.eval"), "us"},
      {"tquel.rows_returned", count(ref.rows_returned), "count"},
      {"temporal.pin_us", mean_us("temporal.pin"), "us"},
      {"temporal.partitions_considered", count(ref.considered), "count"},
      {"temporal.partitions_pruned", count(ref.pruned), "count"},
      {"temporal.prune_ratio", Ratio(ref.pruned, ref.considered), "ratio"},
      {"temporal.rows_scanned", count(ref.rows_scanned), "count"},
      {"temporal.rows_scanned_per_row_returned",
       Ratio(ref.rows_scanned, ref.rows_returned), "ratio"},
      {"temporal.morsels_formed", count(ref.morsels), "count"},
      {"temporal.bytes_per_version", Ratio(m.store_bytes, m.versions), "B"},
      {"temporal.sealed_partitions", count(m.sealed_partitions), "count"},
      {"core.append_us", mean_us("core.append"), "us"},
      {"core.replace_valid_us", mean_us("core.replace_valid"), "us"},
      {"core.delete_valid_us", mean_us("core.delete_valid"), "us"},
      {"core.rollback_update_us", mean_us("core.rollback_update"), "us"},
      {"core.engine_us", engine.MeanUs(), "us"},
      {"storage.fsyncs", count(wio.file_syncs), "count"},
      {"storage.fsync_us",
       Ratio(static_cast<double>(wio.sync_ns) / 1e3,
             wio.file_syncs + wio.dir_syncs),
       "us"},
      {"storage.commits_per_fsync", Ratio(m.write_io_ops, wio.file_syncs),
       "ratio"},
      {"storage.wal_bytes_per_op", Ratio(wio.bytes_written, m.write_io_ops),
       "B"},
      {"storage.checkpoint_bytes",
       count(m.durability.checkpoint_io.bytes_written), "B"},
      {"storage.recovery_bytes_read",
       count(m.durability.recovery_io.bytes_read), "B"},
      {"storage.checkpoint_fs_us", Median(m.durability.checkpoint_fs_us),
       "us"},
      {"storage.recovery_fs_us", Median(m.durability.recovery_fs_us), "us"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
  size_t spans = 0;
  for (const TraceBuffer* t : traces) spans += t->spans().size();
  r->notes.push_back("trace: " + std::to_string(spans) + " spans; " +
                     std::to_string(m.traced_query_us.size()) +
                     " traced and " + std::to_string(m.query_us.count()) +
                     " untraced queries");
  for (const auto& [name, t] : self) {
    r->notes.push_back("self " + name + ": calls=" + std::to_string(t.calls) +
                       " mean_us=" + std::to_string(t.MeanUs()));
  }
}

// --- Phases ---------------------------------------------------------------

std::string SetupPath(const Env& env, size_t rep) {
  return env.Path("setup" + std::to_string(rep));
}

// One set-up: builds the history in a fresh database and checkpoints it,
// timing both.  Build 0 is the one the run serves: it is traced in a traced
// run, its store and I/O are counted, and it is returned open.  Later
// builds only add a set-up time and write latencies, and are removed.
Result<Loaded> BuildHistory(Env& env, size_t rep, Measured* m) {
  const bool first = rep == 0;
  const bool rounds = env.shape.round_salary_versions > 0;
  const std::string path = SetupPath(env, rep);
  const IoSnapshot io0 = env.fs.Snapshot();
  const uint64_t ops0 = env.result->attempted;
  const int64_t t0 = NowNs();
  TDB_ASSIGN_OR_RETURN(
      Loaded loaded,
      LoadHistory(env, path,
                  first && env.args.trace ? &env.main_trace : nullptr,
                  rounds ? nullptr : &m->write_us));
  const IoSnapshot load_io = env.fs.Snapshot() - io0;
  TDB_RETURN_IF_ERROR(loaded.db->Checkpoint());
  m->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!first) {
    loaded.db.reset();
    stdfs::remove_all(path);
    return loaded;
  }
  CountStore(loaded.db.get(), m);
  env.result->notes.push_back(
      "history: " + std::to_string(m->versions) + " versions, " +
      std::to_string(m->sealed_partitions) + " sealed partitions, " +
      std::to_string(env.result->attempted - ops0) + " statements");
  if (!rounds) {
    m->write_io = load_io;
    m->write_io_ops = env.result->attempted - ops0;
  }
  return loaded;
}

// Runs one more set-up build, counting a failure as a failed operation.
void ExtraBuild(Env& env, size_t rep, Measured* m) {
  Result<Loaded> built = BuildHistory(env, rep, m);
  if (!built.ok()) {
    env.Fail("set-up build failed: " + built.status().ToString());
  }
}

double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

// Read-only: two clients cycle through the query list until --seconds of
// client time have passed and every query has kMinPerKey samples.  The
// other set-up builds and the `reopen_reps` checkpoint-and-reopen cycles
// are spread over that time, with the clients paused, so that each samples
// another stretch of a run on a machine whose speed drifts.
void RunReadOnly(Env& env, Loaded* loaded,
                 const std::vector<std::string>& list, Measured* m) {
  ReaderGate gate;
  const ClientSpec spec{&loaded->db, &list, &m->ref.digest,
                        env.args.trace, &gate};
  const Recorded* rec = RecordedFor(env);
  const std::string path = SetupPath(env, 0);
  const size_t builds = env.shape.setup_reps - 1;
  const size_t actions = builds + env.shape.reopen_reps;
  size_t done_actions = 0;
  size_t reopens = 0;
  // Action i is a build when it crosses a multiple of actions / builds.
  const auto pause_action = [&] {
    const size_t i = done_actions++;
    if ((i + 1) * builds / actions > i * builds / actions) {
      ExtraBuild(env, 1 + i * builds / actions, m);
      return;
    }
    const uint64_t h =
        CheckpointAndReopen(env, &loaded->db, path, &m->durability);
    if (reopens++ == 0 && rec != nullptr) {
      CheckRecorded(env, "history", h, rec->history);
    }
  };
  std::vector<std::thread> threads =
      StartClients(spec, kClients, &m->clients, &env.next_request);
  const size_t min_samples = env.args.trace ? 0 : kMinPerKey * list.size();
  const double slot_s = env.args.seconds / static_cast<double>(actions + 1);
  const int64_t t0 = NowNs();
  double paused_s = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double active = SecondsSince(t0) - paused_s;
    if (done_actions < actions &&
        active >= slot_s * static_cast<double>(done_actions + 1)) {
      const int64_t p0 = NowNs();
      gate.Pause();
      pause_action();
      if (loaded->db == nullptr) break;  // The reopen failed.
      gate.Resume();
      paused_s += SecondsSince(p0);
      continue;
    }
    size_t done = 0;
    for (const auto& c : m->clients) {
      done += c->done.load(std::memory_order_relaxed);
    }
    if ((active >= env.args.seconds && done >= min_samples) ||
        active >= kMaxStretch * env.args.seconds) {
      break;
    }
  }
  gate.Stop();
  for (std::thread& t : threads) t.join();
  m->query_phase_s = SecondsSince(t0) - paused_s;
  Collect(env, 0, m);
  while (done_actions < actions) pause_action();
}

// One payroll round: copy the set-up image, open it, run the writer's
// stream with two snapshot readers beside it, check the quiesced result,
// then checkpoint and reopen.  Every round does the same work.
void RunRound(Env& env, size_t round, const std::string& image,
              const std::vector<WorkloadOp>& ops, size_t* round_len,
              const std::vector<std::string>& list, Measured* m) {
  const std::string path = env.Path("round");
  stdfs::remove_all(path);
  stdfs::copy(image, path, stdfs::copy_options::recursive);
  Result<std::unique_ptr<Database>> opened = env.Open(path);
  if (!opened.ok()) {
    env.Fail("round open failed: " + opened.status().ToString());
    return;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  if (Status s = DeclareRanges(env, db.get()); !s.ok()) {
    env.Fail("range declarations failed: " + s.ToString());
    return;
  }
  ReaderGate gate;
  const ClientSpec spec{&db, &list, nullptr, env.args.trace, &gate};
  const size_t first_client = m->clients.size();
  const IoSnapshot io0 = env.fs.Snapshot();
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads =
      StartClients(spec, kClients, &m->clients, &env.next_request);
  std::vector<size_t> deferred;
  int64_t paused_ns = 0;
  const auto apply = [&](size_t i) {
    TraceBuffer* trace =
        env.args.trace && i % 2 == 1 ? &env.main_trace : nullptr;
    ApplyOp(env, db.get(), ops[i], trace, &m->write_us, i);
  };
  // The first round runs until the size is reached and fixes the round's
  // length; the others apply the same ops.
  const temporadb::VersionStore* salaries =
      (*db->GetRelation("salaries"))->store();
  const auto done = [&](size_t i) {
    return *round_len > 0
               ? i + 1 == *round_len
               : salaries->version_count() >= env.shape.round_salary_versions;
  };
  bool finished = false;
  for (size_t i = 0; i < ops.size() && !finished; ++i) {
    if (ops[i].fenced) {
      deferred.push_back(i);
    } else {
      apply(i);
    }
    finished = done(i);
    if (finished && *round_len == 0) *round_len = i + 1;
    if ((i + 1) % kMaintenanceEvery == 0 || finished) {
      const int64_t p0 = NowNs();
      gate.Pause();
      for (size_t d : deferred) apply(d);
      deferred.clear();
      gate.Resume();
      paused_ns += NowNs() - p0;
    }
  }
  if (!finished) env.Fail("the round's stream ended before its size");
  if (round == 0) {
    m->write_io = env.fs.Snapshot() - io0;
    m->write_io_ops = *round_len;
  }
  gate.Stop();
  for (std::thread& t : threads) t.join();
  m->query_phase_s += SecondsSince(t0) - static_cast<double>(paused_ns) / 1e9;
  Collect(env, first_client, m);

  // Quiesced: a rotating sample of the list must answer the same on the
  // snapshot and the direct path.
  const size_t step = std::max<size_t>(1, list.size() / kDirectSamples);
  for (size_t j = 0; j < 4; ++j) {
    const std::string& q = list[((round * 4 + j) * step) % list.size()];
    env.result->attempted += 2;
    Result<Rowset> snap = SnapshotQuery(db.get(), q);
    Result<Rowset> direct = db->Query(q);
    if (!snap.ok() || !direct.ok() ||
        ResultDigest(*snap) != ResultDigest(*direct)) {
      env.Fail("direct and snapshot answers differ [" + q + "]");
    }
  }
  const uint64_t h = CheckpointAndReopen(env, &db, path, &m->durability);
  const Recorded* rec = RecordedFor(env);
  if (round == 0 && rec != nullptr) {
    CheckRecorded(env, "history", h, rec->history);
  }
  db.reset();
  stdfs::remove_all(path);
}

// Rounds until --seconds of round time have passed and every statement and
// query has kMinPerKey samples.  The other set-up builds run
// between the first rounds.
void RunRounds(Env& env, const std::vector<WorkloadOp>& ops,
               const std::vector<std::string>& list, Measured* m) {
  const std::string image = SetupPath(env, 0);
  double round_s = 0;
  size_t round_len = 0;
  for (size_t round = 0;; ++round) {
    const bool enough =
        env.args.trace || (round >= kMinPerKey &&
                           m->query_us.count() >= kMinPerKey * list.size());
    if (round > 0 && ((round_s >= env.args.seconds && enough) ||
                      round_s >= kMaxStretch * env.args.seconds)) {
      break;
    }
    const int64_t t0 = NowNs();
    RunRound(env, round, image, ops, &round_len, list, m);
    round_s += SecondsSince(t0);
    if (round + 1 < env.shape.setup_reps) ExtraBuild(env, round + 1, m);
  }
  for (size_t rep = m->setup_s.size(); rep < env.shape.setup_reps; ++rep) {
    ExtraBuild(env, rep, m);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Shape& s : Shapes()) n.push_back(s.name);
    return n;
  }();
  return names;
}

RunResult RunWorkload(const RunArgs& args) {
  RunResult result;
  const Shape* shape = nullptr;
  for (const Shape& s : Shapes()) {
    if (args.workload == s.name) shape = &s;
  }
  if (shape == nullptr) {
    result.error = "unknown workload: " + args.workload;
    return result;
  }
  Env env(*shape, args, &result);
  Measured m;
  const bool rounds = shape->round_salary_versions > 0;
  Result<Loaded> loaded = BuildHistory(env, 0, &m);
  if (!loaded.ok()) {
    result.error = "set-up failed: " + loaded.status().ToString();
    return result;
  }
  const Recorded* rec = RecordedFor(env);
  if (rec != nullptr) {
    CheckRecorded(env, "stream", loaded->stream_digest, rec->stream);
  }
  const std::vector<std::string> list = MakeQueryList(env, loaded->horizon);
  m.ref = ReferencePass(env, loaded->db.get(), list);
  if (rec != nullptr) CheckRecorded(env, "reads", m.ref.combined, rec->reads);

  if (!rounds) {
    RunReadOnly(env, &*loaded, list, &m);
  } else {
    loaded->db.reset();
    RunRounds(env, loaded->round_ops, list, &m);
  }
  loaded->db.reset();
  stdfs::remove_all(SetupPath(env, 0));

  if (args.trace) {
    PerLayerMetrics(env, m, &result);
    const std::string spans = env.Path("spans-" + args.workload + ".csv");
    if (Status s = WriteSpans(spans, Traces(env, m)); !s.ok()) {
      result.notes.push_back("spans not written: " + s.ToString());
    } else {
      result.notes.push_back("spans written to " + spans);
    }
  } else if (!EndToEndMetrics(env, m, &result)) {
    return result;
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
