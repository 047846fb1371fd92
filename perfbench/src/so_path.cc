// so-path / so-path-delta: the SO-like cyclic stream with Table 1's SO
// RPQs Q1-Q4 registered on one engine, on S-PATH or on the Δ-tree PATH.

#include <memory>
#include <string>
#include <utility>

#include "engine_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSampleInstants = 10;
constexpr int kSetupEvery = 1;  ///< slides between set-up samples

/// \brief bench_table3's SO stream at scale 1.0 (generator seed 42), with
/// its vertices interned in an order drawn from `seed`.
///
/// The graph is the same for every seed; only vertex ids (and so every
/// hash layout and iteration order in the engine) change. Distinct
/// generator seeds change the work itself by up to 2.4x (README.md), more
/// than any run length that fits the benchmark's budget averages out.
sgq::Result<sgq::InputStream> SoStream(std::uint64_t seed,
                                       sgq::Vocabulary* vocab) {
  sgq::Vocabulary local;
  sgq::SoOptions so;
  so.seed = 42;
  so.num_vertices = 2500;
  so.num_edges = 9000;
  so.edges_per_hour = 2.5;
  SGQ_ASSIGN_OR_RETURN(sgq::InputStream stream,
                       sgq::GenerateSoStream(so, &local));
  return Reintern(std::move(stream), local, seed, vocab);
}

}  // namespace

Report RunSoPath(const RunArgs& args, sgq::PathImpl impl) {
  Report report;
  sgq::Vocabulary vocab;
  auto stream = SoStream(args.seed, &vocab);
  if (!stream.ok()) {
    report.Note("generator: " + stream.status().ToString());
    report.elements.Add(false);
    return report;
  }

  EngineWorkload w;
  w.options.path_impl = impl;
  w.window = sgq::WindowSpec(30 * sgq::kDay, sgq::kDay);
  const std::vector<sgq::BenchQuery> all = sgq::SoQuerySet();
  w.queries.assign(all.begin(), all.begin() + 4);
  w.vocab = &vocab;
  const sgq::InputStream* input = &*stream;
  w.open_source = [input]() -> sgq::Result<std::unique_ptr<ElementSource>> {
    return std::unique_ptr<ElementSource>(new MemorySource(input));
  };

  const std::vector<Timestamp> samples =
      DrawInstants(args.seed, input->front().t + w.window.size,
                   input->back().t, kSampleInstants);
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
  CountElements(passes, input->size(), &report);

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
    CountElements(traced, input->size(), &report);
    AddEngineLayers(traced, tracer, collected, &report);
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      PassStats solo = RunPass(w, plain, static_cast<int>(q));
      CountElements({solo}, input->size(), &report);
      report.Add("core.solo_s." + w.queries[q].name, solo.timed_s, "s");
    }
    AddTraceMetrics(tracer, Throughput(passes), Throughput(traced), &report);
    if (!args.trace_path.empty()) {
      const sgq::Status st = tracer.Write(args.trace_path);
      if (!st.ok()) report.Note("trace: " + st.ToString());
    }
  }

  // Oracle: each query's snapshot at the sample instants against the
  // one-time evaluator on the windowed input snapshot.
  const sgq::SgtStream windowed = ApplyWindow(*input, w.window);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    checkers[q].Finish();
    auto query = sgq::MakeQuery(w.queries[q].text, w.window, &vocab);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (!query.ok()) {
        report.oracle.Add(false);
        continue;
      }
      auto want = OracleAt(windowed, query->rq, vocab, samples[i]);
      report.oracle.Add(want.ok() &&
                        SameSnapshot(checkers[q].At(i), *want,
                                     w.queries[q].name + " at t=" +
                                         std::to_string(samples[i]),
                                     &report));
    }
  }
  return report;
}

}  // namespace perfbench
