// Shared pieces of the repository benchmark: run arguments, the result
// report (operation accounting + named metrics), clocks and quantiles,
// memory sampling, the in-memory span tracer, and the snapshot checker
// that compares delivered results against an independent oracle.
//
// Everything here lives on the benchmark's side of the library's public
// API: spans are recorded around the calls into each layer, never inside
// the library.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sgq/sgq.h"

namespace perfbench {

using sgq::Timestamp;

/// \brief Benchmark-side perturbation of the delivered answer (negative
/// control): the checks must catch it and count the failure.
enum class Perturb { kNone, kDrop, kShorten };

/// \brief Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Perturb perturb = Perturb::kNone;
  std::string work_dir;    ///< scratch files (stream file, checkpoints)
  std::string trace_path;  ///< where the traced run writes its spans
};

/// \brief Attempted/failed count of one kind of operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// \brief What one run hands back to main: operation accounting per kind
/// and named metrics, printed in insertion order.
struct Report {
  Tally elements;     ///< stream elements ingested
  Tally commands;     ///< session protocol commands (ERR replies fail)
  Tally checkpoints;  ///< checkpoints written and read back
  Tally oracle;       ///< (query, instant) snapshots checked
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  std::vector<std::string> notes;  ///< human-readable lines (stdout)

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief Quantile `q` of `v` by linear interpolation between order
/// statistics (the "inclusive" method). 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// \brief Median shorthand.
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// \brief Current resident set size of this process, in bytes
/// (/proc/self/statm; 0 where unavailable).
std::uint64_t ResidentBytes();

/// \brief Returns freed heap pages to the OS so a following resident-size
/// baseline measures live data only.
void TrimHeap();

/// \brief Deterministic 64-bit mix (splitmix64) for deriving sub-seeds.
std::uint64_t Mix(std::uint64_t x);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// \brief In-memory span recorder. Spans nest run -> slide -> layer call;
/// each records name, start, end, parent and the id of the slide it
/// belongs to. Disabled tracers record nothing (every call is a branch).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// \brief Opens a span under the innermost open span; returns its
  /// handle (-1 when disabled).
  int Begin(const char* name);
  /// \brief Closes span `handle` (must be the innermost open span).
  void End(int handle);
  /// \brief Slide id stamped on spans opened from now on.
  void SetSlide(int slide) { slide_ = slide; }

  /// \brief Sum of durations of every span named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// \brief Durations of every span named `name`, in milliseconds.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// \brief Self time (duration minus children) summed per span name.
  std::map<std::string, double> SelfSeconds() const;

  /// \brief Writes one JSON object per span to `path`.
  sgq::Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int slide;
  };
  bool on_;
  int slide_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief RAII span.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name)
      : tracer_(tracer), handle_(tracer->Begin(name)) {}
  ~Scoped() { tracer_->End(handle_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

/// \brief Untraced-vs-traced overhead and unattributed share of the
/// traced slides, as per-layer metrics.
void AddTraceMetrics(const Tracer& tracer, double untraced_eps,
                     double traced_eps, Report* report);

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

/// \brief A delivered result reduced to what snapshots need.
struct Delivered {
  std::uint64_t key;  ///< PairKey(src, trg)
  Timestamp ts;
  Timestamp exp;
  bool deletion;
};

inline std::uint64_t PairKey(sgq::VertexId src, sgq::VertexId trg) {
  return (static_cast<std::uint64_t>(src) << 32) ^
         static_cast<std::uint64_t>(trg);
}

/// \brief One query's result snapshots at fixed sample instants, built
/// online from its delivered results with the tau_t rules of Def. 12: a
/// tuple adds its pair to every sample its interval contains, and a
/// deletion at d removes the pair from every sample at or after d (it
/// truncates all earlier value-equivalent tuples to end at d).
///
/// With a perturbation armed the results are buffered instead, and the
/// perturbation is applied at Finish() to one tuple that alone puts its
/// pair into some sample snapshot, so the change must be visible there.
class SnapshotChecker {
 public:
  SnapshotChecker(const std::vector<Timestamp>* samples, Perturb perturb)
      : samples_(samples), perturb_(perturb), sets_(samples->size()) {}

  void Add(const Delivered& d);
  /// \brief Applies a buffered perturbation; returns whether one applied.
  bool Finish();
  /// \brief The snapshot at sample `i`.
  const std::unordered_set<std::uint64_t>& At(std::size_t i) const {
    return sets_[i];
  }
  /// \brief Heap bytes the checker holds (glibc node and bucket sizes),
  /// so memory samples can leave the checker out.
  std::uint64_t ApproxBytes() const {
    std::uint64_t n = buffered_.capacity() * sizeof(Delivered);
    for (const auto& set : sets_) n += set.size() * 32 + set.bucket_count() * 8;
    return n;
  }

 private:
  void Apply(const Delivered& d);

  const std::vector<Timestamp>* samples_;
  Perturb perturb_;
  std::vector<std::unordered_set<std::uint64_t>> sets_;
  std::vector<Delivered> buffered_;
};

/// \brief Compares `got` with `want`; on mismatch appends a note naming
/// the query, instant and the first differing pair.
bool SameSnapshot(const std::unordered_set<std::uint64_t>& got,
                  const std::unordered_set<std::uint64_t>& want,
                  const std::string& what, Report* report);

/// \brief The windowed snapshot pairs of a static query's oracle.
std::unordered_set<std::uint64_t> ToKeys(const sgq::VertexPairSet& pairs);

/// \brief Evaluates `rq` with the one-time evaluator (Def. 14's Q_O) on
/// the snapshot at `t` of the windowed input stream W(S).
sgq::Result<std::unordered_set<std::uint64_t>> OracleAt(
    const sgq::SgtStream& windowed, const sgq::RegularQuery& rq,
    const sgq::Vocabulary& vocab, Timestamp t);

/// \brief WSCAN of `stream` under one window (every label the same).
sgq::SgtStream ApplyWindow(const sgq::InputStream& stream,
                           const sgq::WindowSpec& window);

/// \brief Moves `stream`, named through `local`, into `vocab`, interning
/// its vertices in an order drawn from `seed`: the same graph, with vertex
/// ids (and so every hash layout and iteration order in the engine) that
/// differ from seed to seed. Assumes `local` numbers vertices densely.
sgq::Result<sgq::InputStream> Reintern(sgq::InputStream stream,
                                       const sgq::Vocabulary& local,
                                       std::uint64_t seed,
                                       sgq::Vocabulary* vocab);

/// \brief `n` distinct instants drawn from `seed` in [lo, hi], sorted.
std::vector<Timestamp> DrawInstants(std::uint64_t seed, Timestamp lo,
                                    Timestamp hi, int n);

/// \brief Coalesces delivered tuples per pair (deletions truncate, then
/// overlapping or adjacent intervals merge) and counts the distinct
/// (pair, maximal interval) entries.
std::uint64_t DistinctIntervals(std::vector<Delivered> delivered);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
