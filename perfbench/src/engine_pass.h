// One timed pass of a static query population over a stream, shared by
// the so-path, so-path-delta and zipf-fanout workloads.
//
// A pass builds a fresh Engine (the set-up), then feeds the stream in
// order as fast as the engine accepts it (one closed-loop caller) and
// drains every query's sink once per slide — one day of stream time, the
// paper window's slide. The clock is read at slide boundaries only: a
// slide runs from the first element of one day entering the program to
// the first element of the next, and holds that day's arrivals plus the
// boundary's expiry work. Between slides, outside the timed interval, the
// benchmark feeds the checker and samples memory.

#ifndef PERFBENCH_ENGINE_PASS_H_
#define PERFBENCH_ENGINE_PASS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/// \brief Where a pass reads its elements from.
class ElementSource {
 public:
  virtual ~ElementSource() = default;
  /// \brief Points `*out` at the next run of elements; returns how many
  /// (0 at the end or on error — see status()).
  virtual std::size_t Next(const sgq::Sge** out, Tracer* tracer) = 0;
  virtual sgq::Status status() const { return sgq::Status::OK(); }
  /// \brief Pure decode time and feeder stall so far, nanoseconds.
  virtual std::uint64_t parse_ns() const { return 0; }
  virtual std::uint64_t stall_ns() const { return 0; }
};

/// \brief Serves an in-memory stream without copying.
class MemorySource : public ElementSource {
 public:
  explicit MemorySource(const sgq::InputStream* stream) : stream_(stream) {}
  std::size_t Next(const sgq::Sge** out, Tracer* tracer) override;

 private:
  const sgq::InputStream* stream_;
  std::size_t pos_ = 0;
};

/// \brief A static query population and its engine configuration.
struct EngineWorkload {
  sgq::EngineOptions options;
  sgq::WindowSpec window;
  std::vector<sgq::BenchQuery> queries;
  sgq::Vocabulary* vocab = nullptr;
  /// Opens the pass's element source; runs inside the timed set-up.
  std::function<sgq::Result<std::unique_ptr<ElementSource>>()> open_source;
};

/// \brief What the benchmark does beside the timed work of a pass.
struct PassHooks {
  Tracer* tracer = nullptr;
  /// One checker per query, fed with every delivered tuple (or null).
  std::vector<SnapshotChecker>* checkers = nullptr;
  /// Per query, every delivered tuple (or null).
  std::vector<std::vector<Delivered>>* collect = nullptr;
  /// Sample the engine's StateBytes() at every slide end.
  bool sample_state = false;
  /// Time one extra set-up after every this many slides, outside the
  /// slide clock (0: none), so set-up samples spread over the pass.
  int setup_every = 0;
};

/// \brief Measurements of one pass.
struct PassStats {
  std::vector<double> slide_ms;
  double timed_s = 0;          ///< sum of slide durations
  double setup_s = 0;
  std::vector<double> setups;  ///< set-ups timed between slides
  std::uint64_t elements = 0;  ///< elements handed to Push
  std::uint64_t accepted = 0;  ///< Engine::edges_pushed() at the end
  std::uint64_t delivered = 0;
  std::uint64_t peak_bytes = 0;   ///< resident growth over the pass
  std::uint64_t state_peak = 0;   ///< largest StateBytes() at a slide end
  std::uint64_t processed = 0;    ///< Engine::edges_processed()
  std::uint64_t ops_touched = 0;
  std::uint64_t skipped = 0;
  std::uint64_t waves = 0;
  std::uint64_t live_ops = 0;     ///< peak NumOperators() at slide ends
  std::uint64_t shared_subtrees = 0;
  int checkpoints = 0;            ///< Engine::Checkpoint calls
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t parse_ns = 0;
  std::uint64_t stall_ns = 0;
  sgq::Status status = sgq::Status::OK();
};

/// \brief Builds an engine for `w` (optionally with only query `only`),
/// returning the per-query ids. Each registration is one "compile" span.
sgq::Result<std::unique_ptr<sgq::Engine>> BuildEngine(
    const EngineWorkload& w, Tracer* tracer, std::vector<sgq::QueryId>* ids,
    int only = -1);

/// \brief Runs one pass (see the file comment).
PassStats RunPass(const EngineWorkload& w, const PassHooks& hooks,
                  int only = -1);

/// \brief Adds the element accounting of `passes` to `report`: each pass
/// attempts the `expected` elements of the stream; elements not decoded,
/// or decoded but not accepted by the engine, fail.
void CountElements(const std::vector<PassStats>& passes,
                   std::uint64_t expected, Report* report);

/// \brief The end-to-end metrics of every workload, over all `passes`
/// of the run: setup_s is the median of every set-up timed in them.
void AddEndToEnd(const std::vector<PassStats>& passes, Report* report);

/// \brief Throughput over `passes`, elements per second.
double Throughput(const std::vector<PassStats>& passes);

/// \brief Runs passes until `seconds` of wall time have gone (whole
/// passes, at least `min_passes`).
std::vector<PassStats> RunPassesFor(const EngineWorkload& w, double seconds,
                                    int min_passes, const PassHooks& first,
                                    const PassHooks& rest);

/// \brief Times one set-up (engine build plus opening the input) that
/// is torn down again without running a pass; seconds, or -1 on error.
double TimeSetUp(const EngineWorkload& w);

/// \brief The per-layer metrics of traced engine passes.
void AddEngineLayers(const std::vector<PassStats>& traced,
                     const Tracer& tracer,
                     const std::vector<std::vector<Delivered>>& collected,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_PASS_H_
