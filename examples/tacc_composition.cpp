// TACC composition demo: the §5.1 extension services built by chaining stateless
// workers — "a correctly chosen sequence of transformations" (§2.3).
//
// Runs pipelines locally (the same code the cluster workers execute):
//   1. page -> munge-html -> filter-keywords -> palm-transform   (PDA browsing)
//   2. metasearch aggregation
//   3. Bay Area culture page aggregation (approximate answers)
//   4. a 3-hop anonymous rewebber chain
//
// Run:  ./build/examples/tacc_composition

#include <cstdio>

#include "src/content/html.h"
#include "src/services/extras/culture_page.h"
#include "src/services/extras/keyword_filter.h"
#include "src/services/extras/metasearch.h"
#include "src/services/extras/palm_transform.h"
#include "src/services/extras/rewebber.h"
#include "src/services/transend/distillers.h"
#include "src/tacc/pipeline.h"

namespace sns {
namespace {

std::string TextOf(const ContentPtr& content) {
  return std::string(content->bytes().begin(), content->bytes().end());
}

void Run() {
  WorkerRegistry registry;
  RegisterTranSendDistillers(&registry);
  registry.Register(kKeywordFilterType, [] { return std::make_unique<KeywordFilterWorker>(); });
  registry.Register(kMetasearchType, [] { return std::make_unique<MetasearchWorker>(); });
  registry.Register(kCulturePageType, [] { return std::make_unique<CulturePageWorker>(); });
  registry.Register(kPalmTransformType,
                    [] { return std::make_unique<PalmTransformWorker>(); });
  registry.Register(kRewebberEncryptType,
                    [] { return std::make_unique<RewebberWorker>(true); });
  registry.Register(kRewebberDecryptType,
                    [] { return std::make_unique<RewebberWorker>(false); });
  std::printf("registered worker types:");
  for (const std::string& type : registry.Types()) {
    std::printf(" %s", type.c_str());
  }
  std::printf("\n");

  // ---- 1. PDA pipeline: munge | highlight | spoon-feed. ----------------------------
  Rng rng(0x7ACC);
  HtmlGenOptions gen;
  gen.paragraphs = 3;
  gen.inline_images = 2;
  std::string page = GenerateHtmlPage(&rng, gen);

  PipelineSpec pda;
  pda.stages.push_back({kHtmlDistillerType, {}});
  pda.stages.push_back({kKeywordFilterType, {{kArgKeywords, "cluster,network"}}});
  pda.stages.push_back({kPalmTransformType, {{kArgColumns, "38"}, {kArgRows, "10"}}});
  std::printf("\n--- pipeline: %s ---\n", pda.ToString().c_str());

  TaccRequest request;
  request.url = "http://www.example.edu/story.html";
  request.profile = UserProfile("pilot-user");
  request.inputs.push_back(Content::Make(
      request.url, MimeType::kHtml, std::vector<uint8_t>(page.begin(), page.end())));
  TaccResult result = RunPipelineLocally(registry, pda, request);
  std::printf("input HTML %zu bytes -> SPOON %lld bytes; first page:\n", page.size(),
              result.status.ok() ? static_cast<long long>(result.output->size()) : -1);
  if (result.status.ok()) {
    std::string spoon = TextOf(result.output);
    std::printf("%s\n", spoon.substr(0, spoon.find('\f')).c_str());
  }

  // ---- 2. Metasearch ("3 pages of Perl in 2.5 hours"). -------------------------------
  std::printf("\n--- metasearch: collate 3 engines ---\n");
  TaccRequest search;
  search.url = "http://transend/meta";
  search.args[kArgSearchString] = "scalable network services";
  search.args["k"] = "5";
  TaccResult meta = RunPipelineLocally(registry, PipelineSpec::Single(kMetasearchType,
                                                                      search.args),
                                       search);
  if (meta.status.ok()) {
    std::printf("%s", TextOf(meta.output).c_str());
  }

  // ---- 3. Culture page: aggregate venues, tolerate spurious matches. ------------------
  std::printf("\n--- Bay Area culture page (approximate answers) ---\n");
  TaccRequest culture;
  culture.url = "http://transend/culture";
  for (const char* venue : {"Zellerbach Hall", "Greek Theatre", "Yoshi's"}) {
    std::string listing = GenerateCulturePage(&rng, venue, 3);
    culture.inputs.push_back(Content::Make(
        venue, MimeType::kHtml, std::vector<uint8_t>(listing.begin(), listing.end())));
  }
  TaccResult calendar =
      RunPipelineLocally(registry, PipelineSpec::Single(kCulturePageType), culture);
  if (calendar.status.ok()) {
    std::string text = TextOf(calendar.output);
    std::printf("%s", text.substr(0, 700).c_str());
    std::printf("  ... (spurious date pickups are visible and ignorable, as the paper notes)\n");
  }

  // ---- 4. Anonymous rewebber: 3 encrypt hops, then unwind. ----------------------------
  std::printf("\n--- anonymous rewebber: 3-hop chain ---\n");
  PipelineSpec onion;
  onion.stages.push_back({kRewebberEncryptType, {{kArgKey, "hop-a"}}});
  onion.stages.push_back({kRewebberEncryptType, {{kArgKey, "hop-b"}}});
  onion.stages.push_back({kRewebberEncryptType, {{kArgKey, "hop-c"}}});
  TaccRequest publish;
  publish.url = "http://anon/page";
  std::string secret = "<html>anonymously published content</html>";
  publish.inputs.push_back(Content::Make(
      publish.url, MimeType::kHtml, std::vector<uint8_t>(secret.begin(), secret.end())));
  TaccResult wrapped = RunPipelineLocally(registry, onion, publish);

  PipelineSpec unwind;
  unwind.stages.push_back({kRewebberDecryptType, {{kArgKey, "hop-c"}}});
  unwind.stages.push_back({kRewebberDecryptType, {{kArgKey, "hop-b"}}});
  unwind.stages.push_back({kRewebberDecryptType, {{kArgKey, "hop-a"}}});
  TaccRequest retrieve;
  retrieve.url = publish.url;
  retrieve.inputs.push_back(wrapped.output);
  TaccResult unwrapped = RunPipelineLocally(registry, unwind, retrieve);
  std::printf("wrapped %zu bytes of ciphertext; unwound: \"%s\"\n",
              wrapped.status.ok() ? static_cast<size_t>(wrapped.output->size()) : 0,
              unwrapped.status.ok() ? TextOf(unwrapped.output).c_str() : "(failed)");
  std::printf("\nEach stage is an interchangeable cluster worker: any of these services\n"
              "inherits scalability and fault tolerance by running on the SNS layer.\n");
}

}  // namespace
}  // namespace sns

int main() {
  sns::Run();
  return 0;
}
