// zipf-fanout: 1024 single-label standing queries over a Zipf(1.0)-label
// CSV stream file, read through FileChunkSource and ChunkWalkCursor and
// parsed inline on the execution thread, with micro-batches > 1.

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "engine_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kLabels = 1024;
constexpr std::size_t kEdges = 3000000;
constexpr int kSampleInstants = 6;
constexpr int kSetupEvery = 16;  ///< slides between set-up samples
constexpr std::size_t kParseRun = 4096;

/// \brief Parses the stream file inline: each Next is one "parse" span.
class FileSource : public ElementSource {
 public:
  explicit FileSource(std::unique_ptr<sgq::FileChunkSource> source)
      : source_(std::move(source)), walk_(*source_, false),
        buf_(kParseRun) {}

  std::size_t Next(const sgq::Sge** out, Tracer* tracer) override {
    Scoped span(tracer, "parse");
    *out = buf_.data();
    return walk_.Next(buf_.data(), buf_.size());
  }
  sgq::Status status() const override { return walk_.status(); }
  std::uint64_t parse_ns() const override { return walk_.busy_ns(); }
  std::uint64_t stall_ns() const override {
    return source_->ReadaheadStallNs();
  }

 private:
  std::unique_ptr<sgq::FileChunkSource> source_;
  sgq::ChunkWalkCursor walk_;
  std::vector<sgq::Sge> buf_;
};

}  // namespace

Report RunZipfFanout(const RunArgs& args) {
  Report report;
  sgq::Vocabulary vocab;
  sgq::ZipfStreamOptions zo;
  zo.seed = args.seed;
  zo.num_labels = kLabels;
  zo.num_edges = kEdges;
  zo.num_vertices = 1000;
  zo.skew = 1.0;
  zo.edges_per_hour = 400;  // ~312 days, ~290K elements per window
  auto stream = sgq::GenerateZipfLabelStream(zo, &vocab);
  if (!stream.ok()) {
    report.Note("generator: " + stream.status().ToString());
    report.elements.Add(false);
    return report;
  }
  const std::string path = args.work_dir + "/zipf-" +
                           std::to_string(args.seed) + ".csv";
  {
    // Synced, so no write-back of the fresh file overlaps the timed passes.
    sgq::FileByteSink sink(path);
    sgq::Status st = sink.Append(sgq::FormatStreamCsv(*stream, vocab));
    if (st.ok()) st = sink.Sync();
    if (st.ok()) st = sink.Close();
    if (!st.ok()) {
      report.Note("writing the stream file: " + st.ToString());
      report.elements.Add(false);
      return report;
    }
  }

  EngineWorkload w;
  w.options.batch_size = 256;
  w.window = sgq::WindowSpec(30 * sgq::kDay, sgq::kDay);
  for (std::size_t i = 0; i < kLabels; ++i) {
    w.queries.push_back({"l" + std::to_string(i),
                         "Answer(x,y) <- l" + std::to_string(i) + "(x,y)"});
  }
  w.vocab = &vocab;
  w.open_source = [&path, &vocab]()
      -> sgq::Result<std::unique_ptr<ElementSource>> {
    SGQ_ASSIGN_OR_RETURN(
        std::unique_ptr<sgq::FileChunkSource> source,
        sgq::MakeFileChunkSource(path, sgq::StreamFormat::kCsv, &vocab));
    return std::unique_ptr<ElementSource>(new FileSource(std::move(source)));
  };

  const std::vector<Timestamp> samples =
      DrawInstants(args.seed, stream->front().t + w.window.size,
                   stream->back().t, kSampleInstants);
  std::vector<SnapshotChecker> checkers;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    checkers.emplace_back(&samples, q == 0 ? args.perturb : Perturb::kNone);
  }

  Tracer off(false);
  PassHooks checked;
  checked.tracer = &off;
  checked.checkers = &checkers;
  PassHooks plain;
  plain.tracer = &off;
  checked.setup_every = plain.setup_every = kSetupEvery;

  std::vector<PassStats> passes =
      RunPassesFor(w, args.seconds, 1, checked, plain);
  CountElements(passes, stream->size(), &report);

  if (!args.trace) {
    AddEndToEnd(passes, &report);
  } else {
    Tracer tracer(true);
    std::vector<std::vector<Delivered>> collected(w.queries.size());
    PassHooks first;
    first.tracer = &tracer;
    first.collect = &collected;
    first.sample_state = true;
    PassHooks rest;
    rest.tracer = &tracer;
    rest.sample_state = true;
    const int run_span = tracer.Begin("run");
    std::vector<PassStats> traced =
        RunPassesFor(w, args.seconds, 1, first, rest);
    tracer.End(run_span);
    CountElements(traced, stream->size(), &report);
    AddEngineLayers(traced, tracer, collected, &report);
    AddTraceMetrics(tracer, Throughput(passes), Throughput(traced), &report);
    if (!args.trace_path.empty()) {
      const sgq::Status st = tracer.Write(args.trace_path);
      if (!st.ok()) report.Note("trace: " + st.ToString());
    }
  }
  std::remove(path.c_str());

  // Oracle: the benchmark's own window over each label's elements.
  std::unordered_map<sgq::LabelId, std::size_t> query_of;
  for (std::size_t q = 0; q < kLabels; ++q) {
    auto label = vocab.FindLabel("l" + std::to_string(q));
    if (label.ok()) query_of[*label] = q;
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::vector<std::unordered_set<std::uint64_t>> want(kLabels);
    for (const sgq::Sge& e : *stream) {
      if (e.t <= samples[i] && samples[i] < w.window.ExpiryFor(e.t)) {
        want[query_of.at(e.label)].insert(PairKey(e.src, e.trg));
      }
    }
    for (std::size_t q = 0; q < kLabels; ++q) {
      if (i == 0) checkers[q].Finish();
      report.oracle.Add(SameSnapshot(
          checkers[q].At(i), want[q],
          w.queries[q].name + " at t=" + std::to_string(samples[i]),
          &report));
    }
  }
  return report;
}

}  // namespace perfbench
