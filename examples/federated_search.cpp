// Federated search over several documents at once (lotusx::Collection),
// plus the introspection features: EXPLAIN plans with estimated vs actual
// cardinalities, XPath/XQuery export of canvas queries, SVG rendering, and
// the query result cache.

#include <iostream>

#include "datagen/datagen.h"
#include "lotusx/collection.h"
#include "session/svg_export.h"
#include "twig/query_export.h"
#include "twig/query_parser.h"
#include "xml/writer.h"

int main() {
  // --- Build a three-document collection. ---------------------------------
  lotusx::Collection collection;
  {
    lotusx::datagen::DblpOptions options;
    options.num_publications = 2000;
    auto status = collection.AddXmlText(
        "dblp", lotusx::xml::WriteXml(lotusx::datagen::GenerateDblp(options)));
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  {
    lotusx::datagen::StoreOptions options;
    options.num_products = 800;
    (void)collection.AddXmlText(
        "store",
        lotusx::xml::WriteXml(lotusx::datagen::GenerateStore(options)));
  }
  {
    lotusx::datagen::XmarkOptions options;
    options.num_items = 300;
    (void)collection.AddXmlText(
        "auctions",
        lotusx::xml::WriteXml(lotusx::datagen::GenerateXmark(options)));
  }
  std::cout << "collection:";
  for (const std::string& name : collection.DocumentNames()) {
    auto engine = collection.Find(name);
    std::cout << " " << name << "("
              << (*engine)->document().num_nodes() << " nodes)";
  }
  std::cout << "\n\n";

  // --- Cross-document completion: what can a query root be? ---------------
  lotusx::autocomplete::TagRequest request;
  request.axis = lotusx::twig::Axis::kDescendant;
  request.prefix = "p";
  request.limit = 6;
  auto candidates = collection.CompleteTag(lotusx::twig::TwigQuery(), request);
  std::cout << "tags starting with 'p' anywhere in the collection:";
  for (const auto& candidate : *candidates) {
    std::cout << " " << candidate.text << "(" << candidate.frequency << ")";
  }
  std::cout << "\n\n";

  // --- A query that only one document can answer. --------------------------
  auto result = collection.Search("//person[profile]/name", /*top_k=*/5);
  std::cout << "//person[profile]/name -> " << result->hits.size()
            << " hits, all from:";
  for (const auto& hit : result->hits) {
    std::cout << " " << hit.document_name;
  }
  std::cout << "\n\n";

  // --- EXPLAIN on one engine. ----------------------------------------------
  auto dblp = collection.Find("dblp");
  auto query =
      lotusx::twig::ParseQuery(R"(//article[year[="2005"]]/title)").value();
  std::cout << *(*dblp)->Explain(query) << "\n";

  // --- Export the same query for external engines. -------------------------
  std::cout << "as XPath:  " << *lotusx::twig::ToXPath(query) << "\n";
  std::cout << "as XQuery:\n" << *lotusx::twig::ToXQuery(query) << "\n\n";

  // --- Canvas -> SVG. -------------------------------------------------------
  lotusx::session::Canvas canvas;
  auto article = canvas.AddNode(60, 0, "article");
  auto year = canvas.AddNode(0, 120, "year");
  auto title = canvas.AddNode(130, 120, "title");
  (void)canvas.Connect(article, year, lotusx::twig::Axis::kChild);
  (void)canvas.Connect(article, title, lotusx::twig::Axis::kChild);
  (void)canvas.SetPredicate(
      year, {lotusx::twig::ValuePredicate::Op::kEquals, "2005"});
  (void)canvas.SetOutput(title);
  std::string svg = lotusx::session::RenderCanvasSvg(canvas);
  std::cout << "canvas SVG: " << svg.size() << " bytes ("
            << svg.substr(0, 60) << "...)\n\n";

  // --- Result cache. --------------------------------------------------------
  lotusx::datagen::DblpOptions cache_corpus;
  cache_corpus.num_publications = 2000;
  auto cached_engine = lotusx::Engine::FromXmlText(
      lotusx::xml::WriteXml(lotusx::datagen::GenerateDblp(cache_corpus)));
  cached_engine->EnableResultCache(16);
  for (int i = 0; i < 3; ++i) {
    (void)cached_engine->Search(query);
  }
  std::cout << "result cache after 3 identical searches: "
            << cached_engine->cache_hits() << " hits, "
            << cached_engine->cache_misses() << " miss(es)\n";
  return 0;
}
