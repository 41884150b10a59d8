// Experiment E7 — index construction and footprint. For growing document
// sizes: XML parse time, per-component index build time, memory per
// component, and persistence round-trip (file size, save/load time).
//
// Expected shape: every build phase is linear in document size; the
// extended-Dewey labels (the only label store; region labels are the
// DOM's own fields) cost 4 + 4 * depth bytes a node; the keyword index
// is the largest build phase (it tokenizes every value node once,
// interns each distinct term once and inserts each completion-trie key
// once, in sorted order); loading a saved image still beats re-indexing
// from XML, because neither the parse nor the tokenization reruns.
//
// The --json report carries heap allocations per operation for the
// parse, the whole index build, and a separate TermIndex::Build over the
// parsed document (term_index_build); in smoke mode those counts are
// deterministic, so the baselines gate them.

#include <cstdio>
#include <optional>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "datagen/datagen.h"
#include "index/indexed_document.h"
#include "index/term_index.h"
#include "xml/dom_builder.h"
#include "xml/writer.h"

namespace lotusx {
namespace {

using bench::Fmt;
using bench::Table;

void RunSize(std::string_view corpus, xml::Document document, Table* build,
             Table* memory, Table* persist) {
  std::string xml = xml::WriteXml(document);
  // Heap allocations of one run of `fn`.
  auto allocations = [](const auto& fn) {
    bench::AllocCounters before = bench::CurrentAllocCounters();
    fn();
    bench::AllocCounters after = bench::CurrentAllocCounters();
    return bench::AllocPerOp{
        static_cast<double>(after.allocs - before.allocs),
        static_cast<double>(after.bytes - before.bytes)};
  };

  // Parse.
  Timer parse_timer;
  StatusOr<xml::Document> parsed;
  const bench::AllocPerOp parse_alloc =
      allocations([&] { parsed = xml::ParseDocument(xml); });
  CHECK(parsed.ok());
  double parse_ms = parse_timer.ElapsedMillis();
  int32_t nodes = parsed->num_nodes();

  // Build all indexes.
  std::optional<index::IndexedDocument> built;
  const bench::AllocPerOp build_alloc =
      allocations([&] { built.emplace(std::move(parsed).value()); });
  const index::IndexedDocument& indexed = *built;
  const index::IndexBuildStats& stats = indexed.build_stats();

  // The term index alone, built again from the parsed document.
  Timer terms_timer;
  std::optional<index::TermIndex> terms;
  const bench::AllocPerOp terms_alloc = allocations(
      [&] { terms.emplace(index::TermIndex::Build(indexed.document())); });
  double terms_ms = terms_timer.ElapsedMillis();
  std::string label =
      std::string(corpus) + "/" + std::to_string(nodes);
  build->AddRow({label, Fmt(parse_ms, 1), Fmt(stats.dataguide_ms, 1),
                 Fmt(stats.tag_streams_ms, 1), Fmt(stats.term_index_ms, 1),
                 Fmt(stats.extended_dewey_ms + stats.transducer_ms, 1),
                 Fmt(stats.total_ms + parse_ms, 1)});

  auto mib = [](size_t bytes) { return Fmt(bytes / (1024.0 * 1024.0), 2); };
  memory->AddRow({label, mib(stats.document_bytes),
                  mib(stats.extended_dewey_bytes),
                  mib(stats.dataguide_bytes), mib(stats.tag_streams_bytes),
                  mib(stats.term_index_bytes), mib(stats.total_bytes())});

  // Persistence.
  std::string path = "/tmp/lotusx_bench_index.ltsx";
  Timer save_timer;
  CHECK(indexed.SaveTo(path).ok());
  double save_ms = save_timer.ElapsedMillis();
  std::string image;
  CHECK(ReadFileToString(path, &image).ok());
  Timer load_timer;
  auto loaded = index::IndexedDocument::LoadFrom(path);
  CHECK(loaded.ok());
  double load_ms = load_timer.ElapsedMillis();
  std::remove(path.c_str());
  persist->AddRow({label, mib(image.size()), Fmt(save_ms, 1), Fmt(load_ms, 1),
                   Fmt(stats.total_ms + parse_ms, 1)});

  std::string params =
      "corpus=" + std::string(corpus) + " nodes=" + std::to_string(nodes);
  bench::BenchJson::Instance().Record("xml_parse", params, {parse_ms},
                                      parse_alloc);
  bench::BenchJson::Instance().Record("index_build", params,
                                      {stats.total_ms}, build_alloc);
  bench::BenchJson::Instance().Record("term_index_build", params,
                                      {terms_ms}, terms_alloc);
  bench::BenchJson::Instance().Record("index_save", params, {save_ms});
  bench::BenchJson::Instance().Record("index_load", params, {load_ms});
}

}  // namespace
}  // namespace lotusx

int main(int argc, char** argv) {
  std::printf("E7: index construction, footprint, persistence\n\n");
  lotusx::bench::Table build({"corpus/nodes", "parse ms", "dataguide ms",
                              "streams ms", "terms ms", "extdewey ms",
                              "total ms"});
  lotusx::bench::Table memory({"corpus/nodes", "doc MiB", "extdewey MiB",
                               "guide MiB", "streams MiB", "terms MiB",
                               "total MiB"});
  lotusx::bench::Table persist({"corpus/nodes", "file MiB", "save ms",
                                "load ms", "rebuild ms"});

  for (int64_t nodes :
       lotusx::bench::Scales({10'000, 50'000, 200'000, 1'000'000})) {
    lotusx::RunSize("dblp",
                    lotusx::datagen::GenerateDblpWithApproxNodes(5, nodes),
                    &build, &memory, &persist);
  }
  lotusx::RunSize("store",
                  lotusx::datagen::GenerateStoreWithApproxNodes(
                      5, lotusx::bench::ScaledNodes(200'000)),
                  &build, &memory, &persist);
  lotusx::RunSize("xmark",
                  lotusx::datagen::GenerateXmarkWithApproxNodes(
                      5, lotusx::bench::ScaledNodes(200'000)),
                  &build, &memory, &persist);

  std::printf("build time breakdown:\n");
  build.Print();
  std::printf("\nmemory breakdown:\n");
  memory.Print();
  std::printf("\npersistence (load = decode + rebuild derived indexes):\n");
  persist.Print();
  std::printf(
      "\nexpected shape: all phases linear in nodes; the term index is\n"
      "the largest build phase; load beats rebuild-from-XML.\n");
  return lotusx::bench::WriteJsonIfRequested(argc, argv);
}
