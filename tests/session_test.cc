// Subscription-session protocol tests (server/session.h): the line
// protocol drives live attach/detach on a running engine, results are
// tagged per subscription, errors are inline and non-fatal, and a
// session-driven subscription's output matches the engine API run the
// protocol claims to perform.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/query_processor.h"
#include "server/session.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace sgq {
namespace {

InputStream SessionStream(Vocabulary* vocab) {
  RandomStreamOptions opt;
  opt.seed = 2024;
  opt.num_vertices = 8;
  opt.num_labels = 3;
  opt.num_edges = 120;
  opt.max_gap = 2;
  opt.deletion_probability = 0.2;
  auto stream = GenerateRandomStream(opt, vocab);
  EXPECT_TRUE(stream.ok());
  return stream.ok() ? *stream : InputStream{};
}

/// Runs `script` through a fresh session over `stream`; returns stdout.
std::string RunSession(const std::string& script, const InputStream& stream,
                       Vocabulary* vocab, WindowSpec window = {12, 3}) {
  SessionOptions options;
  options.window = window;
  SessionServer server(options, vocab);
  EXPECT_TRUE(server.Init().ok());
  std::istringstream in(script);
  std::ostringstream out;
  EXPECT_TRUE(server.Run(stream, in, out).ok());
  return out.str();
}

/// The `s<id>\t`-tagged result lines for one subscription, tags stripped.
std::vector<std::string> TaggedLines(const std::string& output, int id) {
  const std::string tag = "s" + std::to_string(id) + "\t";
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) == 0) lines.push_back(line.substr(tag.size()));
  }
  return lines;
}

/// The non-result protocol lines (acks, errors) in order.
std::vector<std::string> ProtocolLines(const std::string& output) {
  std::vector<std::string> lines;
  std::istringstream in(output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("s", 0) != 0 || line.find('\t') == std::string::npos) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(SessionTest, SubscribeIngestMatchesStaticRun) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  auto query =
      MakeQuery("Answer(x,y) <- a+(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  auto qp = QueryProcessor::FromQuery(*query, vocab, EngineOptions{});
  ASSERT_TRUE(qp.ok());
  (*qp)->PushAll(stream);

  const std::vector<std::string> session_lines = TaggedLines(output, 0);
  const std::vector<Sgt>& reference = (*qp)->results();
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab))
        << "result " << i;
  }
}

TEST(SessionTest, TwoRuleQuerySubscribesOnOneLine) {
  // SNB Q4 has two rules; a SUBSCRIBE line carries them separated by ';'.
  // Its results must equal a static run of the newline-separated text.
  Vocabulary vocab;
  SnbOptions snb;
  snb.num_persons = 40;
  snb.num_communities = 4;
  snb.num_events = 600;
  auto stream = GenerateSnbStream(snb, &vocab);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const WindowSpec window(10 * kDay, kDay);
  const std::string text = SnbQuerySet()[3].text;
  ASSERT_NE(text.find('\n'), std::string::npos);
  std::string one_line = text;
  std::replace(one_line.begin(), one_line.end(), '\n', ';');

  const std::string output = RunSession(
      "SUBSCRIBE " + one_line + "\nINGEST ALL\nQUIT\n", *stream, &vocab,
      window);
  EXPECT_EQ(ProtocolLines(output).front(), "SUBSCRIBED 0");

  auto query = MakeQuery(text, window, &vocab);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto qp = QueryProcessor::FromQuery(*query, vocab, EngineOptions{});
  ASSERT_TRUE(qp.ok());
  (*qp)->PushAll(*stream);

  const std::vector<std::string> session_lines = TaggedLines(output, 0);
  const std::vector<Sgt>& reference = (*qp)->results();
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab))
        << "result " << i;
  }
}

TEST(SessionTest, AcksAndIdsFollowTheProtocol) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "SUBSCRIBE Answer(x,z) <- c(x,y), c(y,z)\n"
      "INGEST 40\n"
      "UNSUBSCRIBE 0\n"
      "SUBSCRIBE Answer(x,y) <- b(x,y)\n"
      "INGEST ALL\n"
      "RESULTS 2\n"
      "QUIT\n",
      stream, &vocab);

  const std::vector<std::string> acks = ProtocolLines(output);
  ASSERT_EQ(acks.size(), 8u) << output;
  EXPECT_EQ(acks[0], "SUBSCRIBED 0");
  EXPECT_EQ(acks[1], "SUBSCRIBED 1");
  EXPECT_EQ(acks[2], "INGESTED 40");
  EXPECT_EQ(acks[3], "UNSUBSCRIBED 0");
  // The freed id is NOT reused: the third subscription gets id 2.
  EXPECT_EQ(acks[4], "SUBSCRIBED 2");
  EXPECT_EQ(acks[5], "INGESTED " + std::to_string(stream.size() - 40));
  EXPECT_EQ(acks[6], "OK 2");
  EXPECT_EQ(acks[7], "BYE");
}

TEST(SessionTest, ErrorsAreInlineAndNonFatal) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::string output = RunSession(
      "SUBSCRIBE this is not datalog\n"
      "UNSUBSCRIBE 7\n"
      "RESULTS nope\n"
      "FROBNICATE\n"
      "SUBSCRIBE Answer(x,y) <- a(x,y)\n"
      "UNSUBSCRIBE 0\n"
      "UNSUBSCRIBE 0\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  const std::vector<std::string> lines = ProtocolLines(output);
  ASSERT_EQ(lines.size(), 9u) << output;
  EXPECT_EQ(lines[0].rfind("ERR", 0), 0u);  // unparsable query
  EXPECT_EQ(lines[1].rfind("ERR", 0), 0u);  // unknown id
  EXPECT_EQ(lines[2].rfind("ERR", 0), 0u);  // non-numeric id
  EXPECT_EQ(lines[3].rfind("ERR", 0), 0u);  // unknown command
  EXPECT_EQ(lines[4], "SUBSCRIBED 0");
  EXPECT_EQ(lines[5], "UNSUBSCRIBED 0");
  // Double unsubscribe is refused but the session keeps serving.
  EXPECT_EQ(lines[6].rfind("ERR", 0), 0u);
  EXPECT_EQ(lines[7], "INGESTED " + std::to_string(stream.size()));
  EXPECT_EQ(lines[8], "BYE");
}

TEST(SessionTest, UnsubscribeDrainsBufferedResultsFirst) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  // RESULTS is never called: everything the subscription produced must
  // surface at UNSUBSCRIBE time, before the ack, in one batch.
  const std::string with_drain = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "UNSUBSCRIBE 0\n"
      "QUIT\n",
      stream, &vocab);
  const std::string full = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);
  EXPECT_EQ(TaggedLines(with_drain, 0), TaggedLines(full, 0));
}

TEST(SessionTest, MidStreamSubscriptionSeesOnlyTheSuffix) {
  Vocabulary vocab;
  const InputStream stream = SessionStream(&vocab);
  const std::size_t k = 50;
  const std::string output = RunSession(
      "SUBSCRIBE Answer(x,y) <- a+(x,y)\n"
      "INGEST " + std::to_string(k) + "\n"
      "SUBSCRIBE Answer(x,y) <- c(x,y)\n"
      "INGEST ALL\n"
      "QUIT\n",
      stream, &vocab);

  // Static reference over the suffix only.
  const InputStream suffix(stream.begin() + static_cast<std::ptrdiff_t>(k),
                           stream.end());
  auto query = MakeQuery("Answer(x,y) <- c(x,y)", WindowSpec(12, 3), &vocab);
  ASSERT_TRUE(query.ok());
  auto qp = QueryProcessor::FromQuery(*query, vocab, EngineOptions{});
  ASSERT_TRUE(qp.ok());
  (*qp)->PushAll(suffix);

  const std::vector<std::string> session_lines = TaggedLines(output, 1);
  const std::vector<Sgt>& reference = (*qp)->results();
  ASSERT_EQ(session_lines.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(session_lines[i], reference[i].ToString(vocab));
  }
}

}  // namespace
}  // namespace sgq
