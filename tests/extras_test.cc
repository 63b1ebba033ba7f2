// Tests for the §5.1 extension services: keyword filter, metasearch, the culture
// page aggregator, the anonymous rewebber, and the PalmPilot transformer.

#include <gtest/gtest.h>

#include "src/content/html.h"
#include "src/services/extras/culture_page.h"
#include "src/services/extras/keyword_filter.h"
#include "src/services/extras/metasearch.h"
#include "src/services/extras/palm_transform.h"
#include "src/services/extras/rewebber.h"
#include "src/util/strings.h"

namespace sns {
namespace {

TaccRequest HtmlRequest(const std::string& html) {
  TaccRequest request;
  request.url = "http://x/page.html";
  request.inputs.push_back(Content::Make(request.url, MimeType::kHtml,
                                         std::vector<uint8_t>(html.begin(), html.end())));
  return request;
}

std::string TextOf(const ContentPtr& content) {
  return std::string(content->bytes().begin(), content->bytes().end());
}

// ---------- keyword filter ------------------------------------------------------------

TEST(KeywordFilterTest, HighlightsProfileKeywords) {
  KeywordFilterWorker worker;
  TaccRequest request = HtmlRequest("<p>the cluster runs a network service</p>");
  request.profile.Set(kArgKeywords, "cluster,service");
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());
  std::string out = TextOf(result.output);
  EXPECT_NE(out.find("red"), std::string::npos);
  EXPECT_GT(out.size(), 40u);
  // Both keywords wrapped.
  EXPECT_NE(out.find(">cluster</font>"), std::string::npos);
  EXPECT_NE(out.find(">service</font>"), std::string::npos);
}

TEST(KeywordFilterTest, ArgsOverrideProfile) {
  KeywordFilterWorker worker;
  TaccRequest request = HtmlRequest("<p>alpha beta</p>");
  request.profile.Set(kArgKeywords, "alpha");
  request.args[kArgKeywords] = "beta";
  std::string out = TextOf(worker.Process(request).output);
  EXPECT_EQ(out.find(">alpha<"), std::string::npos);
  EXPECT_NE(out.find(">beta<"), std::string::npos);
}

TEST(KeywordFilterTest, NoKeywordsIsIdentity) {
  KeywordFilterWorker worker;
  std::string html = "<p>untouched</p>";
  EXPECT_EQ(TextOf(worker.Process(HtmlRequest(html)).output), html);
}

// ---------- metasearch ----------------------------------------------------------------

TEST(MetasearchTest, EnginesAreDeterministicPerQuery) {
  auto a = SimulateEngine("altavista", "berkeley now", 10);
  auto b = SimulateEngine("altavista", "berkeley now", 10);
  ASSERT_EQ(a.size(), 10u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
  }
  auto c = SimulateEngine("excite", "berkeley now", 10);
  EXPECT_NE(a[0].url, c[0].url);  // Engines differ.
}

TEST(MetasearchTest, CollateInterleavesByRankAndDeduplicates) {
  std::vector<std::vector<MetasearchResult>> per_engine(2);
  per_engine[0] = {{"e1", "http://dup", "t", 1}, {"e1", "http://a", "t", 2}};
  per_engine[1] = {{"e2", "http://dup", "t", 1}, {"e2", "http://b", "t", 2}};
  auto collated = CollateResults(per_engine, 10);
  ASSERT_EQ(collated.size(), 3u);
  EXPECT_EQ(collated[0].url, "http://dup");
  EXPECT_EQ(collated[0].engine, "e1");  // First engine wins the duplicate.
  EXPECT_EQ(collated[1].url, "http://a");
  EXPECT_EQ(collated[2].url, "http://b");
}

TEST(MetasearchTest, WorkerBuildsResultPage) {
  MetasearchWorker worker;
  TaccRequest request;
  request.url = "http://transend/metasearch";
  request.args[kArgSearchString] = "inktomi";
  request.args["k"] = "7";
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());
  std::string page = TextOf(result.output);
  EXPECT_NE(page.find("Metasearch: inktomi"), std::string::npos);
  EXPECT_NE(page.find("altavista"), std::string::npos);
  // At most k list items.
  size_t items = 0;
  for (size_t pos = page.find("<li>"); pos != std::string::npos;
       pos = page.find("<li>", pos + 1)) {
    ++items;
  }
  EXPECT_LE(items, 7u);
  EXPECT_GE(items, 3u);
}

TEST(MetasearchTest, EmptyQueryFails) {
  MetasearchWorker worker;
  TaccRequest request;
  EXPECT_FALSE(worker.Process(request).status.ok());
}

// ---------- culture page ---------------------------------------------------------------

TEST(CulturePageTest, ExtractsRealEventsAndSomeSpurious) {
  Rng rng(9);
  std::string page = GenerateCulturePage(&rng, "Zellerbach Hall", 12);
  auto events = ExtractEvents(StripTags(page));
  int real = 0;
  int spurious = 0;
  for (const ExtractedEvent& event : events) {
    (event.spurious ? spurious : real) += 1;
  }
  EXPECT_GE(real, 10);      // Most listings found.
  EXPECT_GE(spurious, 1);   // The loose heuristics misfire (paper: 10-20%).
  double spurious_rate = static_cast<double>(spurious) / static_cast<double>(real + spurious);
  EXPECT_LT(spurious_rate, 0.45);
}

TEST(CulturePageTest, AggregatesAcrossSourcesSorted) {
  Rng rng(10);
  CulturePageWorker worker;
  TaccRequest request;
  request.url = "http://transend/culture";
  for (const char* venue : {"Greek Theatre", "Freight and Salvage"}) {
    std::string page = GenerateCulturePage(&rng, venue, 5);
    request.inputs.push_back(Content::Make(venue, MimeType::kHtml,
                                           std::vector<uint8_t>(page.begin(), page.end())));
  }
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());
  std::string out = TextOf(result.output);
  EXPECT_NE(out.find("Culture this week"), std::string::npos);
  // Sorted by [month/day]: extract the month sequence and check monotone.
  std::vector<int> months;
  for (size_t pos = out.find("<li>["); pos != std::string::npos;
       pos = out.find("<li>[", pos + 1)) {
    months.push_back(std::atoi(out.substr(pos + 5, 2).c_str()));
  }
  ASSERT_GE(months.size(), 8u);
  for (size_t i = 1; i < months.size(); ++i) {
    EXPECT_LE(months[i - 1], months[i]);
  }
}

TEST(CulturePageTest, MonthFilterNarrowsCalendar) {
  Rng rng(11);
  CulturePageWorker worker;
  TaccRequest request;
  request.url = "http://transend/culture";
  std::string page = GenerateCulturePage(&rng, "Venue", 20);
  request.inputs.push_back(
      Content::Make("v", MimeType::kHtml, std::vector<uint8_t>(page.begin(), page.end())));
  request.args["month"] = "5";
  std::string out = TextOf(worker.Process(request).output);
  for (size_t pos = out.find("<li>["); pos != std::string::npos;
       pos = out.find("<li>[", pos + 1)) {
    EXPECT_EQ(out.substr(pos + 5, 2), "05");
  }
}

TEST(CulturePageTest, MissingSourcesShrinkNotBreak) {
  CulturePageWorker worker;
  TaccRequest request;
  request.url = "u";
  request.inputs.push_back(nullptr);  // An unreachable cultural page.
  Rng rng(12);
  std::string page = GenerateCulturePage(&rng, "Venue", 3);
  request.inputs.push_back(
      Content::Make("v", MimeType::kHtml, std::vector<uint8_t>(page.begin(), page.end())));
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());  // Approximate answer, still useful.
  EXPECT_NE(TextOf(result.output).find("<li>"), std::string::npos);
}

// ---------- rewebber --------------------------------------------------------------------

TEST(RewebberTest, EncryptDecryptRoundTrip) {
  RewebberWorker encrypt(/*encrypt=*/true);
  RewebberWorker decrypt(/*encrypt=*/false);
  TaccRequest request = HtmlRequest("<p>anonymous publication</p>");
  request.args[kArgKey] = "hop1";
  TaccResult enc = encrypt.Process(request);
  ASSERT_TRUE(enc.status.ok());
  EXPECT_EQ(enc.output->mime, MimeType::kOther);  // Ciphertext is opaque.
  EXPECT_EQ(TextOf(enc.output).find("anonymous"), std::string::npos);

  TaccRequest back;
  back.url = request.url;
  back.inputs.push_back(enc.output);
  back.args[kArgKey] = "hop1";
  TaccResult dec = decrypt.Process(back);
  ASSERT_TRUE(dec.status.ok());
  EXPECT_EQ(TextOf(dec.output), "<p>anonymous publication</p>");
}

TEST(RewebberTest, WrongKeyYieldsGarbage) {
  RewebberWorker encrypt(true);
  RewebberWorker decrypt(false);
  TaccRequest request = HtmlRequest("secret content here");
  request.args[kArgKey] = "right";
  TaccResult enc = encrypt.Process(request);
  TaccRequest back;
  back.url = request.url;
  back.inputs.push_back(enc.output);
  back.args[kArgKey] = "wrong";
  EXPECT_EQ(TextOf(decrypt.Process(back).output).find("secret"), std::string::npos);
}

TEST(RewebberTest, MultiHopChainRoundTrips) {
  // A 3-hop rewebber chain: encrypt k1,k2,k3 then decrypt k3,k2,k1.
  std::string original = "<html>whistleblower page</html>";
  std::vector<uint8_t> data(original.begin(), original.end());
  for (const char* key : {"k1", "k2", "k3"}) {
    data = XorKeystream(data, key);
  }
  EXPECT_EQ(std::string(data.begin(), data.end()).find("whistleblower"), std::string::npos);
  for (const char* key : {"k3", "k2", "k1"}) {
    data = XorKeystream(data, key);
  }
  EXPECT_EQ(std::string(data.begin(), data.end()), original);
}

// ---------- PalmPilot transformer ----------------------------------------------------------

TEST(PalmTransformTest, WrapsToDeviceColumns) {
  std::string html = "<html><body><p>the quick brown fox jumps over the lazy dog again and "
                     "again and again</p></body></html>";
  std::string spoon = SpoonFeed(html, 20, 100);
  for (const std::string& line : StrSplit(spoon, '\n')) {
    for (const std::string& page_line : StrSplit(line, '\f')) {
      EXPECT_LE(page_line.size(), 20u) << "line too wide: '" << page_line << "'";
    }
  }
  EXPECT_NE(spoon.find("quick brown fox"), std::string::npos);
}

TEST(PalmTransformTest, PaginatesByRows) {
  std::string words;
  for (int i = 0; i < 200; ++i) {
    words += "word ";
  }
  std::string spoon = SpoonFeed("<p>" + words + "</p>", 20, 5);
  int pages = 1;
  for (char c : spoon) {
    pages += c == '\f' ? 1 : 0;
  }
  EXPECT_GT(pages, 3);
}

TEST(PalmTransformTest, ImagesBecomePlaceholders) {
  std::string html = "<body><img src=\"a.gif\"><p>text</p><img src=\"b.jpg\"></body>";
  std::string spoon = SpoonFeed(html, 40, 12);
  EXPECT_NE(spoon.find("[IMG 1]"), std::string::npos);
  EXPECT_NE(spoon.find("[IMG 2]"), std::string::npos);
  EXPECT_EQ(spoon.find("<img"), std::string::npos);
}

TEST(PalmTransformTest, WorkerUsesProfileMetrics) {
  PalmTransformWorker worker;
  TaccRequest request = HtmlRequest("<p>some words for a tiny screen device</p>");
  request.profile.Set("palm_cols", "16");
  TaccResult result = worker.Process(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output->mime, MimeType::kOther);  // SPOON, not HTML.
  for (const std::string& line : StrSplit(TextOf(result.output), '\n')) {
    for (const std::string& page_line : StrSplit(line, '\f')) {
      EXPECT_LE(page_line.size(), 16u);
    }
  }
  // Output is much smaller than the markup (the paper's transmission-time win).
  EXPECT_LT(result.output->size(), static_cast<int64_t>(request.input()->size()));
}

}  // namespace
}  // namespace sns
