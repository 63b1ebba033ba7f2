// Tests for the TACC layer: profiles, the worker API, the registry, and pipeline
// composition.

#include <gtest/gtest.h>

#include "src/tacc/pipeline.h"
#include "src/tacc/profile.h"
#include "src/tacc/registry.h"
#include "src/tacc/worker.h"

namespace sns {
namespace {

// ---------- profiles -------------------------------------------------------------

TEST(ProfileTest, SetGetAndTypedAccessors) {
  UserProfile profile("user1");
  profile.Set("quality", "low");
  profile.Set("scale", "4");
  profile.Set("toolbar", "true");
  EXPECT_EQ(profile.GetOr("quality", "med"), "low");
  EXPECT_EQ(profile.GetOr("missing", "med"), "med");
  EXPECT_EQ(profile.GetIntOr("scale", 1), 4);
  EXPECT_EQ(profile.GetIntOr("quality", 9), 9);  // Non-numeric falls back.
  EXPECT_TRUE(profile.GetBoolOr("toolbar", false));
  EXPECT_FALSE(profile.GetBoolOr("missing", false));
}

TEST(ProfileTest, SerializeRoundTrip) {
  UserProfile profile("user42");
  profile.Set("a", "1");
  profile.Set("binary", std::string("\x00\x01\x02", 3));
  profile.Set("keywords", "cluster,base");
  auto restored = UserProfile::Deserialize("user42", profile.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->pairs(), profile.pairs());
  EXPECT_EQ(restored->user_id(), "user42");
}

TEST(ProfileTest, DeserializeRejectsTruncation) {
  UserProfile profile("u");
  profile.Set("key", "value");
  std::string data = profile.Serialize();
  data.resize(data.size() - 3);
  EXPECT_FALSE(UserProfile::Deserialize("u", data).ok());
  EXPECT_FALSE(UserProfile::Deserialize("u", "xy").ok());
}

TEST(ProfileTest, WireSizeGrowsWithContent) {
  UserProfile small("u");
  UserProfile big("u");
  big.Set("key", std::string(1000, 'x'));
  EXPECT_GT(big.WireSize(), small.WireSize() + 900);
}

// ---------- worker API -----------------------------------------------------------

class UpperCaseWorker : public TaccWorker {
 public:
  std::string type() const override { return "upper"; }
  TaccResult Process(const TaccRequest& request) override {
    std::vector<uint8_t> out = request.input()->bytes();
    for (uint8_t& b : out) {
      b = static_cast<uint8_t>(std::toupper(b));
    }
    return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(out)));
  }
};

class SuffixWorker : public TaccWorker {
 public:
  std::string type() const override { return "suffix"; }
  TaccResult Process(const TaccRequest& request) override {
    std::vector<uint8_t> out = request.input()->bytes();
    std::string suffix = request.ArgOr("suffix", "!");
    out.insert(out.end(), suffix.begin(), suffix.end());
    return TaccResult::Ok(Content::Make(request.url, MimeType::kHtml, std::move(out)));
  }
};

class FailingWorker : public TaccWorker {
 public:
  std::string type() const override { return "fail"; }
  TaccResult Process(const TaccRequest&) override {
    return TaccResult::Fail(InternalError("boom"));
  }
};

TaccRequest MakeRequest(const std::string& text) {
  TaccRequest request;
  request.url = "http://x/page.html";
  request.inputs.push_back(
      Content::Make(request.url, MimeType::kHtml, std::vector<uint8_t>(text.begin(), text.end())));
  return request;
}

std::string TextOf(const ContentPtr& content) {
  return std::string(content->bytes().begin(), content->bytes().end());
}

TEST(WorkerTest, RequestHelpers) {
  TaccRequest request = MakeRequest("abc");
  request.args["k"] = "5";
  EXPECT_EQ(request.ArgOr("k", ""), "5");
  EXPECT_EQ(request.ArgIntOr("k", 0), 5);
  EXPECT_EQ(request.ArgIntOr("missing", 7), 7);
  EXPECT_EQ(request.TotalInputBytes(), 3);
}

TEST(WorkerTest, DefaultCostModelIsLinearInInputSize) {
  UpperCaseWorker worker;
  TaccRequest small = MakeRequest(std::string(1024, 'a'));
  TaccRequest large = MakeRequest(std::string(10240, 'a'));
  SimDuration small_cost = worker.EstimateCost(small);
  SimDuration large_cost = worker.EstimateCost(large);
  // Fig. 7 slope: ~8 ms per KB, plus fixed overhead.
  EXPECT_NEAR(ToMilliseconds(large_cost - small_cost), 72.0, 1.0);
}

// ---------- registry --------------------------------------------------------------

TEST(RegistryTest, RegisterCreateAndList) {
  WorkerRegistry registry;
  registry.Register("upper", [] { return std::make_unique<UpperCaseWorker>(); });
  registry.Register("suffix", [] { return std::make_unique<SuffixWorker>(); });
  EXPECT_TRUE(registry.Has("upper"));
  EXPECT_FALSE(registry.Has("missing"));
  EXPECT_EQ(registry.Create("missing"), nullptr);
  auto worker = registry.Create("upper");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->type(), "upper");
  EXPECT_EQ(registry.Types(), (std::vector<std::string>{"suffix", "upper"}));
}

// ---------- pipelines --------------------------------------------------------------

TEST(PipelineTest, ChainsStagesInOrder) {
  WorkerRegistry registry;
  registry.Register("upper", [] { return std::make_unique<UpperCaseWorker>(); });
  registry.Register("suffix", [] { return std::make_unique<SuffixWorker>(); });

  PipelineSpec spec;
  spec.stages.push_back({"upper", {}});
  spec.stages.push_back({"suffix", {{"suffix", "!!"}}});
  EXPECT_EQ(spec.ToString(), "upper | suffix");

  TaccResult result = RunPipelineLocally(registry, spec, MakeRequest("hello"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(TextOf(result.output), "HELLO!!");
}

TEST(PipelineTest, OrderMatters) {
  WorkerRegistry registry;
  registry.Register("upper", [] { return std::make_unique<UpperCaseWorker>(); });
  registry.Register("suffix", [] { return std::make_unique<SuffixWorker>(); });

  PipelineSpec spec;
  spec.stages.push_back({"suffix", {{"suffix", "x"}}});
  spec.stages.push_back({"upper", {}});
  TaccResult result = RunPipelineLocally(registry, spec, MakeRequest("hello"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(TextOf(result.output), "HELLOX");  // Suffix got uppercased too.
}

TEST(PipelineTest, UnknownWorkerFails) {
  WorkerRegistry registry;
  TaccResult result =
      RunPipelineLocally(registry, PipelineSpec::Single("ghost"), MakeRequest("x"));
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST(PipelineTest, StageFailureStopsChain) {
  WorkerRegistry registry;
  registry.Register("upper", [] { return std::make_unique<UpperCaseWorker>(); });
  registry.Register("fail", [] { return std::make_unique<FailingWorker>(); });
  PipelineSpec spec;
  spec.stages.push_back({"fail", {}});
  spec.stages.push_back({"upper", {}});
  TaccResult result = RunPipelineLocally(registry, spec, MakeRequest("x"));
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  EXPECT_EQ(result.output, nullptr);
}

TEST(PipelineTest, EmptyPipelinePassesInputThrough) {
  WorkerRegistry registry;
  TaccRequest request = MakeRequest("pass");
  TaccResult result = RunPipelineLocally(registry, PipelineSpec{}, request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(TextOf(result.output), "pass");
}

TEST(PipelineTest, CostEstimateSumsStages) {
  WorkerRegistry registry;
  registry.Register("upper", [] { return std::make_unique<UpperCaseWorker>(); });
  PipelineSpec one = PipelineSpec::Single("upper");
  PipelineSpec two;
  two.stages.push_back({"upper", {}});
  two.stages.push_back({"upper", {}});
  TaccRequest request = MakeRequest(std::string(2048, 'a'));
  EXPECT_EQ(EstimatePipelineCost(registry, two, request),
            2 * EstimatePipelineCost(registry, one, request));
}

}  // namespace
}  // namespace sns
