#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

// --- Percentiles --------------------------------------------------------

namespace {

// Nearest-rank index of percentile q over n ascending samples.
size_t RankIndex(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return rank - 1;
}

}  // namespace

std::optional<double> TailPercentile(const std::vector<double>& sorted,
                                     double q) {
  if (sorted.empty()) return std::nullopt;
  const size_t idx = RankIndex(sorted.size(), q);
  if (sorted.size() - 1 - idx < kMinTailSamples) return std::nullopt;
  return sorted[idx];
}

std::optional<double> TailMean(const std::vector<double>& sorted, double q) {
  if (!TailPercentile(sorted, q)) return std::nullopt;
  const size_t idx = RankIndex(sorted.size(), q);
  return Mean(std::vector<double>(sorted.begin() + idx, sorted.end()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<double> KeyedSamples::SortedAll() const {
  std::vector<double> all;
  all.reserve(count_);
  for (const std::vector<double>& v : by_key_) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<double> KeyedSamples::SortedKeyMedians() const {
  std::vector<double> medians;
  for (const std::vector<double>& v : by_key_) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  std::sort(medians.begin(), medians.end());
  return medians;
}

// --- Result digests -----------------------------------------------------

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fold(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FoldInt(uint64_t* h, int64_t v) {
  unsigned char bytes[8];
  for (size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>(static_cast<uint64_t>(v) >> (8 * i));
  }
  Fold(h, bytes, sizeof(bytes));
}

// splitmix64 finalizer: spreads a digest before it is summed, so that
// additive combination does not cancel structured inputs.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void FoldPeriod(uint64_t* h, const std::optional<temporadb::Period>& p) {
  FoldInt(h, p.has_value() ? 1 : 0);
  if (p.has_value()) {
    FoldInt(h, p->begin().days());
    FoldInt(h, p->end().days());
  }
}

}  // namespace

uint64_t RowDigest(const temporadb::Row& row) {
  using temporadb::ValueType;
  uint64_t h = kFnvOffset;
  for (const temporadb::Value& v : row.values) {
    const ValueType type = v.type();
    FoldInt(&h, static_cast<int64_t>(type));
    switch (type) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        FoldInt(&h, v.AsInt());
        break;
      case ValueType::kFloat: {
        const double d = v.AsFloat();
        int64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        FoldInt(&h, bits);
        break;
      }
      case ValueType::kString:
        FoldInt(&h, static_cast<int64_t>(v.AsString().size()));
        Fold(&h, v.AsString().data(), v.AsString().size());
        break;
      case ValueType::kDate:
        FoldInt(&h, v.AsDate().chronon().days());
        break;
      case ValueType::kBool:
        FoldInt(&h, v.AsBool() ? 1 : 0);
        break;
    }
  }
  FoldPeriod(&h, row.valid);
  FoldPeriod(&h, row.txn);
  return h;
}

uint64_t ResultDigest(const Rowset& rows) {
  uint64_t sum = 0;
  for (const temporadb::Row& row : rows.rows()) sum += Mix(RowDigest(row));
  uint64_t h = kFnvOffset;
  FoldInt(&h, static_cast<int64_t>(sum));
  FoldInt(&h, static_cast<int64_t>(rows.schema().size()));
  FoldInt(&h, static_cast<int64_t>(rows.size()));
  return h;
}

uint64_t CombineKeyed(uint64_t acc, uint64_t key, uint64_t digest) {
  return acc + Mix(Mix(key) ^ digest);
}

// --- Tracing ------------------------------------------------------------

namespace {
thread_local TraceBuffer* bound_buffer = nullptr;
}  // namespace

TraceBuffer* TraceBuffer::Current() { return bound_buffer; }

void TraceBuffer::BeginRequest(uint64_t request) {
  request_ = request;
  open_.clear();
  bound_buffer = this;
}

void TraceBuffer::EndRequest() { bound_buffer = nullptr; }

int32_t TraceBuffer::Open(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, request_, NowNs(), 0});
  const auto idx = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void TraceBuffer::Close(int32_t idx) {
  spans_[idx].end_ns = NowNs();
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

void AccumulateSelfTimes(const std::vector<Span>& spans,
                         std::map<std::string, SelfTime>* out) {
  // Children of one span run sequentially on the span's thread, so the
  // part of a span they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = (*out)[spans[i].name];
    ++t.calls;
    t.self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
  }
}

Status WriteSpans(const std::string& path,
                  const std::vector<const TraceBuffer*>& buffers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + path);
  out << "thread,index,parent,request,name,start_ns,end_ns\n";
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << ',' << i << ',' << s.parent << ',' << s.request << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  out.close();
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// --- Counting filesystem ------------------------------------------------

namespace {

thread_local int64_t thread_sync_ns = 0;
thread_local int64_t thread_fs_ns = 0;

// Adds the time from its construction to its destruction to the calling
// thread's file-system total.
class FsTimer {
 public:
  FsTimer() : t0_(NowNs()) {}
  ~FsTimer() { thread_fs_ns += NowNs() - t0_; }
  FsTimer(const FsTimer&) = delete;
  FsTimer& operator=(const FsTimer&) = delete;

 private:
  int64_t t0_;
};

// Times one sync into the shared counters and the calling thread's total.
template <typename Fn>
Status TimedSync(IoCounters* counters, Fn&& sync) {
  ScopedSpan span("storage.sync");
  const int64_t t0 = NowNs();
  Status s = sync();
  const int64_t ns = NowNs() - t0;
  thread_sync_ns += ns;
  counters->sync_ns.fetch_add(ns, std::memory_order_relaxed);
  return s;
}

class CountingFile : public File {
 public:
  CountingFile(std::unique_ptr<File> base, IoCounters* counters)
      : base_(std::move(base)), counters_(counters) {}
  ~CountingFile() override {
    FsTimer timer;
    base_.reset();
  }

  Result<size_t> ReadAt(uint64_t offset, char* buf, size_t n) override {
    FsTimer timer;
    Result<size_t> r = base_->ReadAt(offset, buf, n);
    if (r.ok()) counters_->bytes_read.fetch_add(*r, std::memory_order_relaxed);
    return r;
  }
  Status WriteAt(uint64_t offset, const char* data, size_t n) override {
    FsTimer timer;
    Status s = base_->WriteAt(offset, data, n);
    if (s.ok()) {
      counters_->bytes_written.fetch_add(n, std::memory_order_relaxed);
    }
    return s;
  }
  Status Truncate(uint64_t size) override {
    FsTimer timer;
    return base_->Truncate(size);
  }
  Status Sync() override {
    FsTimer timer;
    counters_->file_syncs.fetch_add(1, std::memory_order_relaxed);
    return TimedSync(counters_, [this] { return base_->Sync(); });
  }
  Result<uint64_t> Size() override {
    FsTimer timer;
    return base_->Size();
  }

 private:
  std::unique_ptr<File> base_;
  IoCounters* counters_;
};

}  // namespace

IoSnapshot CountingFileSystem::Snapshot() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return {counters_.bytes_written.load(kRelaxed),
          counters_.bytes_read.load(kRelaxed),
          counters_.file_syncs.load(kRelaxed),
          counters_.dir_syncs.load(kRelaxed), counters_.sync_ns.load(kRelaxed)};
}

Result<std::unique_ptr<File>> CountingFileSystem::OpenFile(
    const std::string& path, bool create) {
  FsTimer timer;
  Result<std::unique_ptr<File>> f = base_->OpenFile(path, create);
  if (!f.ok()) return f.status();
  return std::unique_ptr<File>(
      std::make_unique<CountingFile>(std::move(*f), &counters_));
}

Status CountingFileSystem::RenameFile(const std::string& from,
                                      const std::string& to) {
  FsTimer timer;
  return base_->RenameFile(from, to);
}

Status CountingFileSystem::RemoveFile(const std::string& path) {
  FsTimer timer;
  return base_->RemoveFile(path);
}

Status CountingFileSystem::MakeDir(const std::string& path) {
  FsTimer timer;
  return base_->MakeDir(path);
}

Status CountingFileSystem::RemoveDir(const std::string& path) {
  FsTimer timer;
  return base_->RemoveDir(path);
}

Status CountingFileSystem::SyncDir(const std::string& path) {
  FsTimer timer;
  counters_.dir_syncs.fetch_add(1, std::memory_order_relaxed);
  return TimedSync(&counters_, [this, &path] { return base_->SyncDir(path); });
}

int64_t CountingFileSystem::ThreadSyncNs() { return thread_sync_ns; }

int64_t CountingFileSystem::ThreadFsNs() { return thread_fs_ns; }

Result<std::vector<std::string>> CountingFileSystem::ListDir(
    const std::string& path) {
  FsTimer timer;
  return base_->ListDir(path);
}

bool CountingFileSystem::FileExists(const std::string& path) {
  FsTimer timer;
  return base_->FileExists(path);
}

bool CountingFileSystem::DirExists(const std::string& path) {
  FsTimer timer;
  return base_->DirExists(path);
}

// --- Process ------------------------------------------------------------

namespace {

// The "<key>: <n> kB" line of /proc/self/status, in bytes.
uint64_t ProcStatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::stoull(line.substr(klen + 1)) * 1024;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcStatusBytes("VmHWM")) / (1024.0 * 1024.0);
}

}  // namespace perfbench
