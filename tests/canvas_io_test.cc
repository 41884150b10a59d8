#include <gtest/gtest.h>

#include "session/canvas_io.h"
#include "session/protocol.h"
#include "session/session.h"
#include "tests/test_util.h"

namespace lotusx::session {
namespace {

using lotusx::testing::MustIndex;

Canvas MakeCanvas() {
  Canvas canvas;
  CanvasNodeId article = canvas.AddNode(50.5, 0, "article");
  CanvasNodeId author = canvas.AddNode(-10, 120, "author");
  CanvasNodeId title = canvas.AddNode(120, 120.25, "title");
  EXPECT_TRUE(canvas.Connect(article, author, twig::Axis::kChild).ok());
  EXPECT_TRUE(canvas.Connect(article, title, twig::Axis::kDescendant).ok());
  EXPECT_TRUE(canvas.SetOrdered(article, true).ok());
  EXPECT_TRUE(canvas.SetOutput(title).ok());
  EXPECT_TRUE(canvas
                  .SetPredicate(author,
                                {twig::ValuePredicate::Op::kContains,
                                 "jiaheng lu"})
                  .ok());
  return canvas;
}

void ExpectSameCanvas(const Canvas& a, const Canvas& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (const CanvasNode& node : a.nodes()) {
    const CanvasNode* other = b.FindNode(node.id);
    ASSERT_NE(other, nullptr) << "missing box " << node.id;
    EXPECT_DOUBLE_EQ(other->x, node.x);
    EXPECT_DOUBLE_EQ(other->y, node.y);
    EXPECT_EQ(other->tag, node.tag);
    EXPECT_EQ(other->ordered, node.ordered);
    EXPECT_EQ(other->output, node.output);
    EXPECT_EQ(other->predicate, node.predicate);
  }
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].from, b.edges()[i].from);
    EXPECT_EQ(a.edges()[i].to, b.edges()[i].to);
    EXPECT_EQ(a.edges()[i].axis, b.edges()[i].axis);
  }
}

TEST(CanvasIoTest, RoundTripPreservesEverything) {
  Canvas original = MakeCanvas();
  std::string xml = SerializeCanvas(original);
  auto restored = DeserializeCanvas(xml);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << xml;
  ExpectSameCanvas(original, *restored);
  // The restored canvas compiles to the same query.
  EXPECT_EQ(restored->Compile()->ToString(),
            original.Compile()->ToString());
}

TEST(CanvasIoTest, RestoredCanvasContinuesIdAssignment) {
  Canvas original = MakeCanvas();
  auto restored = DeserializeCanvas(SerializeCanvas(original));
  ASSERT_TRUE(restored.ok());
  CanvasNodeId fresh = restored->AddNode(0, 0, "new");
  EXPECT_GT(fresh, 3);  // must not collide with restored ids 1..3
}

TEST(CanvasIoTest, EmptyAndUntaggedBoxesSurvive) {
  Canvas canvas;
  canvas.AddNode(1, 2);  // still typing: empty tag
  auto restored = DeserializeCanvas(SerializeCanvas(canvas));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->nodes().size(), 1u);
  EXPECT_TRUE(restored->nodes()[0].tag.empty());
  Canvas empty;
  EXPECT_TRUE(DeserializeCanvas(SerializeCanvas(empty)).ok());
}

TEST(CanvasIoTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeCanvas("not xml").ok());
  EXPECT_FALSE(DeserializeCanvas("<other/>").ok());
  EXPECT_FALSE(DeserializeCanvas("<canvas><blob/></canvas>").ok());
  EXPECT_FALSE(
      DeserializeCanvas(R"(<canvas><box id="x" x="0" y="0"/></canvas>)")
          .ok());
  EXPECT_FALSE(
      DeserializeCanvas(R"(<canvas><box id="1" x="0" y="0"/>)"
                        R"(<box id="1" x="0" y="0"/></canvas>)")
          .ok());
  EXPECT_FALSE(DeserializeCanvas(
                   R"(<canvas><edge from="1" to="2" axis="/"/></canvas>)")
                   .ok());
  EXPECT_FALSE(DeserializeCanvas(
                   R"(<canvas><box id="1" x="0" y="0"/>)"
                   R"(<box id="2" x="0" y="0"/>)"
                   R"(<edge from="1" to="2" axis="|"/></canvas>)")
                   .ok());
}

TEST(CanvasIoTest, FileRoundTrip) {
  Canvas original = MakeCanvas();
  std::string path = ::testing::TempDir() + "/lotusx_canvas.xml";
  ASSERT_TRUE(SaveCanvasToFile(original, path).ok());
  auto restored = LoadCanvasFromFile(path);
  ASSERT_TRUE(restored.ok());
  ExpectSameCanvas(original, *restored);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadCanvasFromFile(path).ok());
}

TEST(CanvasIoTest, ProtocolSaveAndLoad) {
  auto indexed = MustIndex("<r><a><b>x</b></a></r>");
  Session session(indexed);
  ProtocolInterpreter interpreter(&session);
  ASSERT_TRUE(interpreter.Execute("ADD 0 0 a").ok());
  ASSERT_TRUE(interpreter.Execute("ADD 0 100 b").ok());
  ASSERT_TRUE(interpreter.Execute("EDGE 1 2 /").ok());
  std::string path = ::testing::TempDir() + "/lotusx_proto_canvas.xml";
  auto saved = interpreter.Execute("SAVECANVAS " + path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_TRUE(interpreter.Execute("RESET").ok());
  EXPECT_TRUE(session.canvas().empty());
  auto loaded = interpreter.Execute("LOADCANVAS " + path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto query = interpreter.Execute("QUERY");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(*query, "//a!/b");  // no OUTPUT set: root is the output
  std::remove(path.c_str());
}

// --------------------------------------------------------- Query history

TEST(QueryHistoryTest, RecordsExecutedQueries) {
  auto indexed = MustIndex("<r><a><b>x</b></a></r>");
  Session session(indexed);
  EXPECT_TRUE(session.QueryHistory("").empty());
  CanvasNodeId a = session.canvas().AddNode(0, 0, "a");
  CanvasNodeId b = session.canvas().AddNode(0, 100, "b");
  ASSERT_TRUE(session.canvas().Connect(a, b, twig::Axis::kChild).ok());
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Run().ok());  // executed twice
  std::vector<std::string> history = session.QueryHistory("");
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0], "//a!/b");  // root is the default output
  // Prefix filter.
  EXPECT_TRUE(session.QueryHistory("//z").empty());
  EXPECT_EQ(session.QueryHistory("//a").size(), 1u);
}

TEST(QueryHistoryTest, StopsAddingDistinctQueriesAtTheCap) {
  auto indexed = MustIndex("<r><a><b>x</b></a></r>");
  SessionOptions options;
  options.rewrite_on_empty = false;
  Session session(indexed, options);
  const auto run = [&](const std::string& tag) {
    session.canvas().Reset();
    session.canvas().AddNode(0, 0, tag);
    ASSERT_TRUE(session.Run().ok());
  };
  const size_t cap = Session::kMaxHistoryQueries;
  for (size_t i = 0; i < cap + 10; ++i) run("t" + std::to_string(i));
  const std::vector<std::string> all = session.QueryHistory("", cap + 10);
  EXPECT_EQ(all.size(), cap);
  EXPECT_TRUE(session.QueryHistory("//t" + std::to_string(cap)).empty());
  // A query already kept still gains weight past the cap.
  run("t7");
  EXPECT_EQ(session.QueryHistory("", 1), std::vector<std::string>{"//t7!"});
  run("a");
  EXPECT_TRUE(session.QueryHistory("//a").empty());
}

TEST(QueryHistoryTest, ProtocolHistoryCommand) {
  auto indexed = MustIndex("<r><a><b>x</b></a></r>");
  Session session(indexed);
  ProtocolInterpreter interpreter(&session);
  auto empty = interpreter.Execute("HISTORY");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "(no history)");
  ASSERT_TRUE(interpreter.Execute("ADD 0 0 a").ok());
  ASSERT_TRUE(interpreter.Execute("RUN").ok());
  auto history = interpreter.Execute("HISTORY");
  ASSERT_TRUE(history.ok());
  EXPECT_NE(history->find("//a"), std::string::npos) << *history;
}

}  // namespace
}  // namespace lotusx::session
