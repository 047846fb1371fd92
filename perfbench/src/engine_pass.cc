#include "engine_pass.h"

#include <algorithm>

namespace perfbench {

namespace {

constexpr std::size_t kMemoryRun = 4096;

Delivered ToDelivered(const sgq::Sgt& r) {
  return Delivered{PairKey(r.src, r.trg), r.validity.ts, r.validity.exp,
                   r.is_deletion};
}

}  // namespace

std::size_t MemorySource::Next(const sgq::Sge** out, Tracer* /*tracer*/) {
  const std::size_t n = std::min(kMemoryRun, stream_->size() - pos_);
  *out = stream_->data() + pos_;
  pos_ += n;
  return n;
}

sgq::Result<std::unique_ptr<sgq::Engine>> BuildEngine(
    const EngineWorkload& w, Tracer* tracer, std::vector<sgq::QueryId>* ids,
    int only) {
  auto engine = std::make_unique<sgq::Engine>(w.options);
  ids->clear();
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    if (only >= 0 && static_cast<std::size_t>(only) != i) continue;
    Scoped span(tracer, "compile");
    SGQ_ASSIGN_OR_RETURN(
        sgq::StreamingGraphQuery query,
        sgq::MakeQuery(w.queries[i].text, w.window, w.vocab));
    SGQ_ASSIGN_OR_RETURN(sgq::QueryId id, engine->AddQuery(query, *w.vocab));
    ids->push_back(id);
  }
  SGQ_RETURN_NOT_OK(engine->Finalize());
  return engine;
}

PassStats RunPass(const EngineWorkload& w, const PassHooks& hooks, int only) {
  PassStats st;
  Tracer* tr = hooks.tracer;
  TrimHeap();
  const std::uint64_t rss0 = ResidentBytes();

  // Set-up: engine construction, query compilation and registration,
  // Finalize, and opening the input.
  const std::int64_t t0 = NowNs();
  std::vector<sgq::QueryId> ids;
  std::unique_ptr<sgq::Engine> engine;
  std::unique_ptr<ElementSource> src;
  {
    Scoped span(tr, "setup");
    auto built = BuildEngine(w, tr, &ids, only);
    if (!built.ok()) {
      st.status = built.status();
      return st;
    }
    engine = std::move(*built);
    auto opened = w.open_source();
    if (!opened.ok()) {
      st.status = opened.status();
      return st;
    }
    src = std::move(*opened);
  }
  st.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;

  std::vector<std::vector<sgq::Sgt>> drained(ids.size());
  int slide = 0;
  int slide_span = -1;
  std::int64_t slide_start = 0;
  auto begin_slide = [&] {
    tr->SetSlide(slide);
    slide_start = NowNs();
    slide_span = tr->Begin("slide");
  };
  auto end_slide = [&] {
    {
      Scoped span(tr, "drain");
      for (std::size_t q = 0; q < ids.size(); ++q) {
        drained[q] = engine->TakeResults(ids[q]);
      }
    }
    const std::int64_t now = NowNs();
    tr->End(slide_span);
    st.slide_ms.push_back(static_cast<double>(now - slide_start) * 1e-6);
    st.timed_s += static_cast<double>(now - slide_start) * 1e-9;
    ++slide;

    // Outside the timed interval: consumers, checker and memory samples.
    std::uint64_t checker_bytes = 0;
    for (std::size_t q = 0; q < ids.size(); ++q) {
      st.delivered += drained[q].size();
      for (const sgq::Sgt& r : drained[q]) {
        if (hooks.checkers != nullptr) (*hooks.checkers)[q].Add(ToDelivered(r));
        if (hooks.collect != nullptr) {
          (*hooks.collect)[q].push_back(ToDelivered(r));
        }
      }
      if (hooks.checkers != nullptr) {
        checker_bytes += (*hooks.checkers)[q].ApproxBytes();
      }
    }
    const std::uint64_t rss = ResidentBytes();
    if (rss > rss0 + checker_bytes) {
      st.peak_bytes = std::max(st.peak_bytes, rss - rss0 - checker_bytes);
    }
    for (auto& d : drained) std::vector<sgq::Sgt>().swap(d);
    if (hooks.sample_state) {
      st.state_peak = std::max<std::uint64_t>(st.state_peak,
                                              engine->StateBytes());
    }
    if (hooks.setup_every > 0 && slide % hooks.setup_every == 0) {
      const double s = TimeSetUp(w);
      if (s >= 0) st.setups.push_back(s);
    }
  };

  const sgq::Sge* run = nullptr;
  std::size_t n = 0;
  Timestamp day = -1;
  begin_slide();
  while ((n = src->Next(&run, tr)) > 0) {
    std::size_t i = 0;
    while (i < n) {
      const Timestamp d = run[i].t / sgq::kDay;
      if (day < 0) day = d;
      if (d != day) {
        end_slide();
        day = d;
        begin_slide();
      }
      std::size_t j = i;
      while (j < n && run[j].t / sgq::kDay == day) ++j;
      Scoped span(tr, "push");
      for (std::size_t k = i; k < j; ++k) engine->Push(run[k]);
      st.elements += j - i;
      i = j;
    }
  }
  end_slide();

  st.status = src->status();
  st.accepted = engine->edges_pushed();
  st.processed = engine->edges_processed();
  st.ops_touched = engine->executor().ops_touched();
  st.skipped = engine->executor().index_skipped_dispatches();
  st.waves = engine->executor().num_waves();
  st.live_ops = engine->NumOperators();
  st.shared_subtrees = engine->NumSharedSubtrees();
  st.parse_ns = src->parse_ns();
  st.stall_ns = src->stall_ns();
  return st;
}

std::vector<PassStats> RunPassesFor(const EngineWorkload& w, double seconds,
                                    int min_passes, const PassHooks& first,
                                    const PassHooks& rest) {
  std::vector<PassStats> passes;
  const std::int64_t start = NowNs();
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    passes.push_back(RunPass(w, passes.empty() ? first : rest));
    if (!passes.back().status.ok()) break;
  }
  return passes;
}

double TimeSetUp(const EngineWorkload& w) {
  Tracer off(false);
  std::vector<sgq::QueryId> ids;
  const std::int64_t t0 = NowNs();
  auto engine = BuildEngine(w, &off, &ids);
  auto src = w.open_source();
  const std::int64_t t1 = NowNs();
  return engine.ok() && src.ok() ? static_cast<double>(t1 - t0) * 1e-9 : -1;
}

void CountElements(const std::vector<PassStats>& passes,
                   std::uint64_t expected, Report* report) {
  for (const PassStats& p : passes) {
    report->elements.attempted += expected;
    report->elements.failed +=
        (p.elements > expected ? p.elements - expected
                               : expected - p.elements) +
        (p.elements > p.accepted ? p.elements - p.accepted : 0);
    if (!p.status.ok()) report->Note("pass failed: " + p.status.ToString());
  }
}

double Throughput(const std::vector<PassStats>& passes) {
  double elements = 0, seconds = 0;
  for (const PassStats& p : passes) {
    elements += static_cast<double>(p.elements);
    seconds += p.timed_s;
  }
  return seconds > 0 ? elements / seconds : 0;
}

void AddEndToEnd(const std::vector<PassStats>& passes, Report* report) {
  std::vector<double> slides, setups, peaks, delivered;
  for (const PassStats& p : passes) {
    slides.insert(slides.end(), p.slide_ms.begin(), p.slide_ms.end());
    setups.push_back(p.setup_s);
    setups.insert(setups.end(), p.setups.begin(), p.setups.end());
    peaks.push_back(static_cast<double>(p.peak_bytes) * 1e-6);
    delivered.push_back(static_cast<double>(p.delivered));
  }
  report->Add("throughput_eps", Throughput(passes), "elem/s");
  report->Add("slide_p50_ms", Quantile(slides, 0.5), "ms");
  report->Add("slide_p90_ms", Quantile(slides, 0.9), "ms");
  report->Add("setup_s", Median(setups), "s");
  report->Add("peak_rss_mb", Median(peaks), "MB");
  report->Add("delivered_tuples", Median(delivered), "tuples");
  report->Note("passes " + std::to_string(passes.size()) + ", slides " +
               std::to_string(slides.size()) + ", set-ups " +
               std::to_string(setups.size()));
}

void AddEngineLayers(const std::vector<PassStats>& traced,
                     const Tracer& tracer,
                     const std::vector<std::vector<Delivered>>& collected,
                     Report* report) {
  const double n = static_cast<double>(std::max<std::size_t>(traced.size(), 1));
  double elements = 0, processed = 0, touched = 0, skipped = 0, waves = 0,
         stall = 0, state = 0, delivered = 0;
  for (const PassStats& p : traced) {
    elements += static_cast<double>(p.elements);
    processed += static_cast<double>(p.processed);
    touched += static_cast<double>(p.ops_touched);
    skipped += static_cast<double>(p.skipped);
    waves += static_cast<double>(p.waves);
    stall += static_cast<double>(p.stall_ns);
    state = std::max(state, static_cast<double>(p.state_peak));
  }
  const double parse_s = tracer.TotalSeconds("parse") / n;
  report->Add("model.parse_s", parse_s, "s");
  report->Add("model.parse_meps",
              parse_s > 0 ? elements / n / parse_s * 1e-6 : 0, "Melem/s");
  report->Add("model.readahead_stall_ms", stall / n * 1e-6, "ms");
  report->Add("compile.per_query_ms", Median(tracer.DurationsMs("compile")),
              "ms");
  report->Add("core.push_s", tracer.TotalSeconds("push") / n, "s");
  report->Add("core.state_mb_peak", state * 1e-6, "MB");
  if (!traced.empty()) delivered = static_cast<double>(traced[0].delivered);
  double distinct = 0;
  for (const auto& q : collected) {
    distinct += static_cast<double>(DistinctIntervals(q));
  }
  report->Add("core.emitted_per_distinct",
              distinct > 0 ? delivered / distinct : 0, "ratio");
  if (!traced.empty()) {
    report->Add("core.live_ops", static_cast<double>(traced[0].live_ops),
                "count");
    report->Add("core.shared_subtrees",
                static_cast<double>(traced[0].shared_subtrees), "count");
  }
  const double edges = std::max(processed, 1.0);
  report->Add("runtime.ops_per_edge", touched / edges, "ops/edge");
  report->Add("runtime.skipped_per_edge", skipped / edges, "ops/edge");
  report->Add("runtime.waves_per_edge", waves / edges, "waves/edge");
  report->Add("sink.drain_s", tracer.TotalSeconds("drain") / n, "s");
}

}  // namespace perfbench
