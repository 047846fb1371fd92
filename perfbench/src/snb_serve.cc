// snb-serve: the SNB-like stream driven through SessionServer::HandleLine
// (SUBSCRIBE / INGEST n / UNSUBSCRIBE), with a churning subscription
// population that cycles through the SNB queries, and periodic
// Engine::Checkpoint calls whose files are read back.
//
// The session script is made once per run from the stream and replayed
// by every pass: per day of stream time, the day's control commands (detach,
// attach, checkpoint) and then one INGEST of that day's elements. A slide
// is one day: the clock runs around the calls into the server and the
// engine, and stops while the benchmark reads the replies.

#include <algorithm>
#include <iterator>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "engine_pass.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSlots = 8;            ///< live subscriptions at any time
constexpr int kLifetimeDays = 40;    ///< each lives this long
constexpr int kStaggerDays = 5;      ///< one detach + attach this often
constexpr int kCheckpointDays = 7;   ///< checkpoint period
constexpr int kSampleEveryDays = 3;
constexpr int kSetupEvery = 1;  ///< slides between set-up samples

/// SnbQuerySet() indices a SUBSCRIBE line can carry: Q1, Q2, Q3, Q5, Q6.
/// SUBSCRIBE takes one line and ParseRq splits rules at newlines, so the
/// two-rule queries Q4 and Q7 cannot be subscribed (they run in the
/// traced run's solo passes only).
constexpr int kProtocolQueries[] = {0, 1, 2, 4, 5};

/// \brief One subscription of the script.
struct Sub {
  int query = 0;         ///< index into SnbQuerySet()
  Timestamp attach = 0;  ///< day it attaches (-1: during set-up)
  Timestamp detach = 0;  ///< day it detaches (past the end: never)
  std::vector<Timestamp> samples;  ///< instants its snapshot is checked at
};

/// \brief What happens at the start of one day.
struct Day {
  Timestamp day = 0;
  std::size_t begin = 0, end = 0;  ///< the day's elements [begin, end)
  std::vector<int> detach;         ///< script subscription indices
  std::vector<int> attach;
  bool checkpoint = false;
};

struct Script {
  std::vector<Sub> subs;
  std::vector<int> initial;  ///< attached during set-up
  std::vector<Day> days;
};

Script MakeScript(const sgq::InputStream& stream,
                  const sgq::WindowSpec& window, std::uint64_t offset) {
  Script s;
  // Queries rotate through the protocol's queries in creation order, so
  // every query recurs and the live mix is the same for every seed. (With
  // the order drawn from the seed, the mix of live queries at checkpoint
  // days moved slide p90 by up to 64% between seeds.)
  std::size_t next_query = 0;
  auto draw = [&] {
    return kProtocolQueries[next_query++ % std::size(kProtocolQueries)];
  };
  for (std::size_t i = 0; i < stream.size();) {
    Day d;
    d.day = stream[i].t / sgq::kDay;
    d.begin = i;
    while (i < stream.size() && stream[i].t / sgq::kDay == d.day) ++i;
    d.end = i;
    s.days.push_back(d);
  }
  const Timestamp first = s.days.front().day;
  const Timestamp last = s.days.back().day;
  std::map<Timestamp, Day*> by_day;
  for (Day& d : s.days) by_day[d.day] = &d;
  // Slot k's first subscription is attached at set-up and detaches at
  // day first + lifetime + k * stagger; each successor lives a lifetime.
  for (int k = 0; k < kSlots; ++k) {
    Timestamp attach = -1;
    Timestamp detach = first + kLifetimeDays + k * kStaggerDays;
    int prev = -1;
    while (true) {
      Sub sub;
      sub.query = draw();
      sub.attach = attach;
      sub.detach = detach;
      s.subs.push_back(sub);
      const int id = static_cast<int>(s.subs.size() - 1);
      if (attach < 0) {
        s.initial.push_back(id);
      } else {
        // Control commands land on the first day with elements at or
        // after the scheduled day.
        auto it = by_day.lower_bound(attach);
        it->second->detach.push_back(prev);
        it->second->attach.push_back(id);
        s.subs[static_cast<std::size_t>(prev)].detach = it->first;
        s.subs[static_cast<std::size_t>(id)].attach = it->first;
      }
      prev = id;
      if (detach > last) break;
      attach = detach;
      detach = attach + kLifetimeDays;
    }
  }
  for (Day& d : s.days) {
    d.checkpoint = d.day != first && (d.day - first) % kCheckpointDays == 0;
  }
  // Check instants, every third day at a day and hour drawn from
  // `offset`: at least one window after the attach (every element valid
  // then arrived after it) and before the detach (every element up to
  // the instant was ingested while attached).
  for (Sub& sub : s.subs) {
    const Timestamp from =
        (sub.attach < 0 ? first : sub.attach) * sgq::kDay + window.size;
    const Timestamp to = std::min(sub.detach * sgq::kDay, stream.back().t + 1);
    for (Timestamp day = first + offset % kSampleEveryDays; day <= last;
         day += kSampleEveryDays) {
      const Timestamp t = day * sgq::kDay + offset % sgq::kDay;
      if (t >= from && t < to) {
        sub.samples.push_back(t);
      }
    }
  }
  return s;
}

/// \brief Parses one `s<id>\t(src, label, trg, [ts, exp)...)` result line.
bool ParseResultLine(const std::string& line, int* id, std::string* src,
                     std::string* trg, Timestamp* ts, Timestamp* exp,
                     bool* deletion) {
  const std::size_t tab = line.find('\t');
  if (line.empty() || line[0] != 's' || tab == std::string::npos) return false;
  *id = std::atoi(line.c_str() + 1);
  std::size_t p = tab + 1;
  *deletion = p < line.size() && line[p] == '-';
  if (*deletion) ++p;
  if (p >= line.size() || line[p] != '(') return false;
  ++p;
  const std::size_t c1 = line.find(", ", p);
  const std::size_t c2 = c1 == std::string::npos ? c1 : line.find(", ", c1 + 2);
  const std::size_t c3 = c2 == std::string::npos ? c2 : line.find(", [", c2 + 2);
  if (c3 == std::string::npos) return false;
  *src = line.substr(p, c1 - p);
  *trg = line.substr(c2 + 2, c3 - c2 - 2);
  long long a = 0, b = 0;
  if (std::sscanf(line.c_str() + c3 + 3, "%lld, %lld)", &a, &b) != 2) {
    return false;
  }
  *ts = a;
  *exp = b;
  return true;
}

class ServeRun {
 public:
  ServeRun(const sgq::InputStream* stream, sgq::Vocabulary* vocab,
           const Script* script, const sgq::WindowSpec& window,
           std::string checkpoint_path)
      : stream_(stream), vocab_(vocab), script_(script), window_(window),
        checkpoint_path_(std::move(checkpoint_path)) {}

  /// \brief Builds a session and attaches the initial population.
  std::unique_ptr<sgq::SessionServer> SetUp(Tracer* tr, Report* report) {
    sgq::SessionOptions options;
    options.window = window_;
    engine_id_.clear();
    script_id_.clear();
    auto server = std::make_unique<sgq::SessionServer>(options, vocab_);
    if (!server->Init().ok()) return nullptr;
    for (int id : script_->initial) Subscribe(server.get(), id, tr, report);
    return server;
  }

  /// \brief Times one set-up that is torn down again: a session with
  /// the initial population, its replies discarded. Seconds, or -1 when
  /// the session does not start.
  double TimeSetUp() {
    sgq::SessionOptions options;
    options.window = window_;
    const std::int64_t t0 = NowNs();
    auto server = std::make_unique<sgq::SessionServer>(options, vocab_);
    if (!server->Init().ok()) return -1;
    for (int id : script_->initial) {
      Handle(server.get(), "SUBSCRIBE " + QueryText(id));
    }
    const std::int64_t t1 = NowNs();
    out_.str("");
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  /// \brief Replays the script once. `checkers` (when given) receives
  /// every result line, per script subscription. With `setup_every` > 0,
  /// times one extra set-up after every that many days, outside the
  /// slide clock.
  PassStats Pass(Tracer* tr, std::vector<SnapshotChecker>* checkers,
                 Report* report, int setup_every) {
    PassStats st;
    checkers_ = checkers;
    TrimHeap();
    const std::uint64_t rss0 = ResidentBytes();
    const std::int64_t t0 = NowNs();
    std::unique_ptr<sgq::SessionServer> server;
    {
      Scoped span(tr, "setup");
      server = SetUp(tr, report);
    }
    st.setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (server == nullptr) {
      report->commands.Add(false);
      return st;
    }
    sgq::Engine& engine = server->engine();
    bool pending_checkpoint = false;
    int slide = 0;
    for (const Day& day : script_->days) {
      tr->SetSlide(slide++);
      double slide_s = 0;
      int slide_span = tr->Begin("slide");
      auto timed = [&](const char* name, auto&& fn) {
        Scoped span(tr, name);
        const std::int64_t a = NowNs();
        fn();
        slide_s += static_cast<double>(NowNs() - a) * 1e-9;
      };
      for (int id : day.detach) {
        // A subscription whose SUBSCRIBE failed has nothing to detach;
        // its UNSUBSCRIBE fails too.
        const auto bound = engine_id_.find(id);
        if (bound == engine_id_.end()) {
          report->commands.Add(false);
          continue;
        }
        const std::string line =
            "UNSUBSCRIBE " + std::to_string(bound->second);
        timed("unsubscribe", [&] { Handle(server.get(), line); });
        Scoped bench(tr, "bench");
        Consume(report, &st);
      }
      for (int id : day.attach) {
        timed("subscribe", [&] {
          Handle(server.get(), "SUBSCRIBE " + QueryText(id));
        });
        Scoped bench(tr, "bench");
        Bind(id, report);
      }
      if (day.checkpoint) {
        if (pending_checkpoint) FinishCheckpoint(&engine, tr, &slide_s, report);
        sgq::Status status;
        timed("checkpoint",
              [&] { status = engine.Checkpoint(checkpoint_path_, vocab_); });
        pending_checkpoint = status.ok();
        if (!status.ok()) {
          report->checkpoints.Add(false);
          report->Note("checkpoint: " + status.ToString());
        }
        ++st.checkpoints;
      }
      const std::string ingest =
          "INGEST " + std::to_string(day.end - day.begin);
      timed("ingest", [&] { Handle(server.get(), ingest); });
      st.elements += day.end - day.begin;
      {
        Scoped bench(tr, "bench");
        Consume(report, &st);
      }
      tr->End(slide_span);
      st.slide_ms.push_back(slide_s * 1e3);
      st.timed_s += slide_s;

      // Outside the timed interval: memory and state samples.
      std::uint64_t checker_bytes = 0;
      if (checkers_ != nullptr) {
        for (const SnapshotChecker& c : *checkers_) {
          checker_bytes += c.ApproxBytes();
        }
      }
      const std::uint64_t rss = ResidentBytes();
      if (rss > rss0 + checker_bytes) {
        st.peak_bytes = std::max(st.peak_bytes, rss - rss0 - checker_bytes);
      }
      if (tr->on()) {
        st.state_peak =
            std::max<std::uint64_t>(st.state_peak, engine.StateBytes());
        st.live_ops =
            std::max<std::uint64_t>(st.live_ops, engine.NumOperators());
      }
      if (setup_every > 0 && slide % setup_every == 0) {
        const double s = TimeSetUp();
        if (s >= 0) st.setups.push_back(s);
      }
    }
    if (pending_checkpoint) {
      double ignored = 0;
      FinishCheckpoint(&engine, tr, &ignored, report);
    }
    // Every element ingested once: the session's cursor must have
    // reached the end of the stream.
    report->elements.attempted += stream_->size();
    report->elements.failed += stream_->size() - std::min<std::size_t>(
                                                     server->position(),
                                                     stream_->size());
    st.shared_subtrees = engine.NumSharedSubtrees();
    st.checkpoint_bytes = engine.checkpoint_bytes();
    st.processed = engine.edges_processed();
    st.ops_touched = engine.executor().ops_touched();
    st.skipped = engine.executor().index_skipped_dispatches();
    st.waves = engine.executor().num_waves();
    return st;
  }

 private:
  std::string QueryText(int id) const {
    static const std::vector<sgq::BenchQuery> queries = sgq::SnbQuerySet();
    const Sub& sub = script_->subs[static_cast<std::size_t>(id)];
    return queries[static_cast<std::size_t>(sub.query)].text;
  }

  void Handle(sgq::SessionServer* server, const std::string& line) {
    bool quit = false;
    const sgq::Status st = server->HandleLine(line, *stream_, out_, &quit);
    if (!st.ok()) out_ << "ERR " << st.ToString() << "\n";
  }

  void Subscribe(sgq::SessionServer* server, int id, Tracer* tr,
                 Report* report) {
    {
      Scoped span(tr, "subscribe");
      Handle(server, "SUBSCRIBE " + QueryText(id));
    }
    Bind(id, report);
  }

  /// \brief Reads the SUBSCRIBED reply and maps the script subscription
  /// to the engine's id.
  void Bind(int id, Report* report) {
    const std::string text = out_.str();
    int engine_id = -1;
    if (std::sscanf(text.c_str(), "SUBSCRIBED %d", &engine_id) == 1) {
      engine_id_[id] = engine_id;
      script_id_[engine_id] = id;
    }
    report->commands.Add(engine_id >= 0);
    if (engine_id < 0) report->Note("subscribe failed: " + text);
    out_.str("");
  }

  /// \brief Reads the replies of the last command: result lines go to
  /// the checker, ERR lines fail the command.
  void Consume(Report* report, PassStats* st) {
    const std::string text = out_.str();
    out_.str("");
    std::size_t pos = 0;
    bool ok = true;
    while (pos < text.size()) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      const std::string line = text.substr(pos, nl - pos);
      pos = nl + 1;
      if (line.compare(0, 4, "ERR ") == 0) {
        ok = false;
        report->Note("server: " + line);
      } else if (!line.empty() && line[0] == 's') {
        ++st->delivered;
        if (checkers_ != nullptr) Check(line, report);
      }
    }
    report->commands.Add(ok);
  }

  void Check(const std::string& line, Report* report) {
    int id = 0;
    std::string src, trg;
    Timestamp ts = 0, exp = 0;
    bool deletion = false;
    // A result line that does not parse, or names an unknown vertex or
    // subscription, is a wrong answer.
    const bool parsed =
        ParseResultLine(line, &id, &src, &trg, &ts, &exp, &deletion);
    auto s = vocab_->FindVertex(src);
    auto t = vocab_->FindVertex(trg);
    const auto it = script_id_.find(id);
    if (!parsed || !s.ok() || !t.ok() || it == script_id_.end()) {
      report->Note("bad result line: " + line);
      report->oracle.Add(false);
      return;
    }
    (*checkers_)[static_cast<std::size_t>(it->second)].Add(
        Delivered{PairKey(*s, *t), ts, exp, deletion});
  }

  void FinishCheckpoint(sgq::Engine* engine, Tracer* tr, double* slide_s,
                        Report* report) {
    const std::int64_t a = NowNs();
    sgq::Status st;
    {
      Scoped span(tr, "checkpoint_wait");
      st = engine->WaitForCheckpoint();
    }
    *slide_s += static_cast<double>(NowNs() - a) * 1e-9;
    wait_s_ += static_cast<double>(NowNs() - a) * 1e-9;
    // Read-back (outside the clock): every section and the whole file
    // must pass their CRCs.
    Scoped bench(tr, "bench");
    bool ok = st.ok();
    if (ok) {
      auto reader = sgq::CheckpointReader::ParseFile(checkpoint_path_);
      ok = reader.ok();
      if (!ok) st = reader.status();
    }
    if (!ok) report->Note("checkpoint read-back: " + st.ToString());
    report->checkpoints.Add(ok);
  }

 public:
  double wait_s_ = 0;

 private:
  const sgq::InputStream* stream_;
  sgq::Vocabulary* vocab_;
  const Script* script_;
  sgq::WindowSpec window_;
  std::string checkpoint_path_;
  std::ostringstream out_;
  std::vector<SnapshotChecker>* checkers_ = nullptr;
  std::unordered_map<int, int> engine_id_;  ///< script id -> engine id
  std::unordered_map<int, int> script_id_;  ///< engine id -> script id
};

}  // namespace

Report RunSnbServe(const RunArgs& args) {
  Report report;
  sgq::Vocabulary vocab;
  // bench_table3's SNB stream (generator seed 7) doubled in people,
  // events and arrival rate: the same ~125 days, twice the work per slide.
  // Like so-path, the graph is the same for every seed and the seed draws
  // the vertex order: over generator seeds 1-10, the quartile spread of
  // delivered tuples was 19% and of slide p50 24% of the median.
  sgq::Vocabulary local;
  sgq::SnbOptions so;
  so.seed = 7;
  so.num_persons = 1800;
  so.num_communities = 90;
  so.num_events = 24000;
  so.edges_per_hour = 8.0;
  auto generated = sgq::GenerateSnbStream(so, &local);
  auto stream = generated.ok()
                    ? Reintern(std::move(*generated), local, args.seed, &vocab)
                    : generated;
  if (!stream.ok()) {
    report.Note("generator: " + stream.status().ToString());
    report.elements.Add(false);
    return report;
  }
  const sgq::WindowSpec window(30 * sgq::kDay, sgq::kDay);
  const Script script = MakeScript(*stream, window, Mix(args.seed + 2));
  const std::string ckpt =
      args.work_dir + "/snb-" + std::to_string(args.seed) + ".sgqc";
  ServeRun serve(&*stream, &vocab, &script, window, ckpt);

  std::vector<SnapshotChecker> checkers;
  bool armed = false;
  for (const Sub& sub : script.subs) {
    const bool arm = !armed && !sub.samples.empty();
    armed = armed || arm;
    checkers.emplace_back(&sub.samples, arm ? args.perturb : Perturb::kNone);
  }

  Tracer off(false);
  std::vector<PassStats> passes;
  const std::int64_t start = NowNs();
  while (passes.empty() ||
         static_cast<double>(NowNs() - start) * 1e-9 < args.seconds) {
    passes.push_back(serve.Pass(&off, passes.empty() ? &checkers : nullptr,
                                &report, kSetupEvery));
  }

  if (!args.trace) {
    AddEndToEnd(passes, &report);
    report.Note("subscriptions " + std::to_string(script.subs.size()));
  } else {
    Tracer tracer(true);
    const int run_span = tracer.Begin("run");
    std::vector<PassStats> traced;
    serve.wait_s_ = 0;
    const std::int64_t tstart = NowNs();
    while (traced.empty() ||
           static_cast<double>(NowNs() - tstart) * 1e-9 < args.seconds) {
      traced.push_back(serve.Pass(&tracer, nullptr, &report, 0));
    }
    tracer.End(run_span);
    const double n = static_cast<double>(traced.size());
    double ckpt_bytes = 0, ckpts = 0, state = 0, live = 0, processed = 0,
           touched = 0, skipped = 0, waves = 0;
    for (const PassStats& p : traced) {
      ckpt_bytes += static_cast<double>(p.checkpoint_bytes);
      ckpts += p.checkpoints;
      state = std::max(state, static_cast<double>(p.state_peak));
      live = std::max(live, static_cast<double>(p.live_ops));
      processed += static_cast<double>(p.processed);
      touched += static_cast<double>(p.ops_touched);
      skipped += static_cast<double>(p.skipped);
      waves += static_cast<double>(p.waves);
    }
    report.Add("model.checkpoint_stall_p50_ms",
               Median(tracer.DurationsMs("checkpoint")), "ms");
    report.Add("model.checkpoint_mb",
               ckpts > 0 ? ckpt_bytes / ckpts * 1e-6 : 0, "MB");
    report.Add("model.checkpoint_wait_ms", serve.wait_s_ / n * 1e3, "ms");
    report.Add("compile.per_query_ms",
               Median(tracer.DurationsMs("subscribe")), "ms");
    report.Add("core.state_mb_peak", state * 1e-6, "MB");
    report.Add("core.live_ops", live, "count");
    report.Add("core.shared_subtrees",
               static_cast<double>(traced[0].shared_subtrees), "count");
    const double edges = std::max(processed, 1.0);
    report.Add("runtime.ops_per_edge", touched / edges, "ops/edge");
    report.Add("runtime.skipped_per_edge", skipped / edges, "ops/edge");
    report.Add("runtime.waves_per_edge", waves / edges, "waves/edge");
    const std::vector<double> sub = tracer.DurationsMs("subscribe");
    const std::vector<double> unsub = tracer.DurationsMs("unsubscribe");
    report.Add("server.subscribe_p50_ms", Quantile(sub, 0.5), "ms");
    report.Add("server.subscribe_p90_ms", Quantile(sub, 0.9), "ms");
    report.Add("server.unsubscribe_p50_ms", Quantile(unsub, 0.5), "ms");
    report.Add("server.unsubscribe_p90_ms", Quantile(unsub, 0.9), "ms");
    report.Add("server.ingest_s", tracer.TotalSeconds("ingest") / n, "s");
    AddTraceMetrics(tracer, Throughput(passes), Throughput(traced), &report);

    // Each SNB query alone on a plain engine over the same stream.
    EngineWorkload w;
    w.window = window;
    w.queries = sgq::SnbQuerySet();
    w.vocab = &vocab;
    const sgq::InputStream* input = &*stream;
    w.open_source = [input]() -> sgq::Result<std::unique_ptr<ElementSource>> {
      return std::unique_ptr<ElementSource>(new MemorySource(input));
    };
    PassHooks plain;
    plain.tracer = &off;
    for (std::size_t q = 0; q < w.queries.size(); ++q) {
      PassStats solo = RunPass(w, plain, static_cast<int>(q));
      CountElements({solo}, input->size(), &report);
      report.Add("core.solo_s." + w.queries[q].name, solo.timed_s, "s");
    }
    if (!args.trace_path.empty()) {
      const sgq::Status st = tracer.Write(args.trace_path);
      if (!st.ok()) report.Note("trace: " + st.ToString());
    }
  }
  std::remove(ckpt.c_str());

  // Oracle: each subscription's snapshot at its check instants against
  // the one-time evaluator, cached per (query, instant).
  const sgq::SgtStream windowed = ApplyWindow(*stream, window);
  const std::vector<sgq::BenchQuery> queries = sgq::SnbQuerySet();
  std::map<std::pair<int, Timestamp>, std::unordered_set<std::uint64_t>> cache;
  for (std::size_t i = 0; i < script.subs.size(); ++i) {
    const Sub& sub = script.subs[i];
    checkers[i].Finish();
    auto query = sgq::MakeQuery(queries[static_cast<std::size_t>(sub.query)].text,
                                window, &vocab);
    for (std::size_t k = 0; k < sub.samples.size(); ++k) {
      const auto key = std::make_pair(sub.query, sub.samples[k]);
      auto it = cache.find(key);
      if (it == cache.end() && query.ok()) {
        auto want = OracleAt(windowed, query->rq, vocab, sub.samples[k]);
        if (want.ok()) it = cache.emplace(key, std::move(*want)).first;
      }
      report.oracle.Add(
          it != cache.end() &&
          SameSnapshot(checkers[i].At(k), it->second,
                       "subscription " + std::to_string(i) + " (" +
                           queries[static_cast<std::size_t>(sub.query)].name +
                           ") at t=" + std::to_string(sub.samples[k]),
                       &report));
    }
  }
  return report;
}

}  // namespace perfbench
