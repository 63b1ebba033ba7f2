// Tests for opaque content: a Content that is only a descriptor (generator,
// seed, size) until something reads its bytes. The lazily synthesized bytes
// must equal what the eager generators wrote, byte for byte, and the
// descriptor-level readers (size, CopyPrefix, the codec magic checks) must
// agree with the materialized bytes without materializing them. SameBytes must
// agree with comparing the bytes, and decide one object, different sizes and
// equal descriptors without materializing anything.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/content/content.h"
#include "src/content/gif_codec.h"
#include "src/content/image.h"
#include "src/content/jpeg_codec.h"
#include "src/services/transend/distillers.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workload/content_universe.h"
#include "tests/opaque_reference.h"

namespace sns {
namespace {

using Filler = Content::Filler;

const int64_t kSizes[] = {0, 1, 2, 7, 8, 9, 160, 10240};

// The eager generators as they were written before opaque content was lazy.

// ContentUniverse's opaque image (with_magic) and kOther filler.
std::vector<uint8_t> EagerUniverseBytes(uint64_t seed, int64_t size, bool with_magic) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  rng.FillBytes(bytes.data(), bytes.size());
  if (with_magic && bytes.size() >= 2) {
    bytes[0] = 'X';
    bytes[1] = 'X';
  }
  return bytes;
}

// The distillers' OpaqueOutput: the byte-loop stream plus the "XX" magic.
std::vector<uint8_t> EagerDistilledBytes(const std::string& url, int64_t size) {
  std::vector<uint8_t> bytes = ReferenceOpaqueBytes(url, static_cast<size_t>(size));
  if (bytes.size() >= 2) {
    bytes[0] = 'X';
    bytes[1] = 'X';
  }
  return bytes;
}

const std::string kUrlA = "http://site1.example.edu/obj1.jpg";
const std::string kUrlB = "http://site2.example.edu/obj2.gif";

// One opaque Content of each generator and two seeds, freshly made (so not
// materialized) on every call.
std::vector<ContentPtr> OpaqueVariants(int64_t size) {
  return {
      Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 17, size),
      Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 18, size),
      Content::MakeOpaque(kUrlA, MimeType::kOther, Filler::kUniverseOther, 17, size),
      Content::MakeOpaque(kUrlA, MimeType::kOther, Filler::kUniverseOther, 18, size),
      Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kDistilled, Fnv1a(kUrlA), size),
      Content::MakeOpaque(kUrlB, MimeType::kJpeg, Filler::kDistilled, Fnv1a(kUrlB), size),
  };
}

TEST(OpaqueContentTest, LazyBytesEqualEagerGenerators) {
  for (int64_t size : kSizes) {
    SCOPED_TRACE(size);
    struct Case {
      ContentPtr content;
      std::vector<uint8_t> eager;
    };
    const Case cases[] = {
        {Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 0xBE12C0DE, size),
         EagerUniverseBytes(0xBE12C0DE, size, true)},
        {Content::MakeOpaque(kUrlA, MimeType::kOther, Filler::kUniverseOther, 0xBE12C0DE, size),
         EagerUniverseBytes(0xBE12C0DE, size, false)},
        {Content::MakeOpaque(kUrlB, MimeType::kJpeg, Filler::kDistilled, Fnv1a(kUrlB), size),
         EagerDistilledBytes(kUrlB, size)},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(static_cast<int>(c.content->filler()));
      EXPECT_EQ(c.content->size(), size);
      // A prefix of every length reads without materializing.
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{8}, size_t{12}}) {
        std::vector<uint8_t> prefix(n, 0xEE);
        size_t copied = c.content->CopyPrefix(prefix.data(), n);
        ASSERT_EQ(copied, std::min(n, static_cast<size_t>(size)));
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.begin() + static_cast<ptrdiff_t>(copied),
                               c.eager.begin()))
            << "n=" << n;
      }
      EXPECT_EQ(c.content->materialized(), size == 0);
      EXPECT_EQ(c.content->bytes(), c.eager);
      EXPECT_TRUE(c.content->materialized());
      EXPECT_EQ(c.content->bytes(), c.eager);  // Kept, not synthesized again.
      uint8_t head[2];
      EXPECT_EQ(c.content->CopyPrefix(head, 2), std::min<size_t>(2, static_cast<size_t>(size)));
    }
  }
}

TEST(OpaqueContentTest, UniverseHandsOutItsEagerBytes) {
  ContentUniverseConfig config;
  config.url_count = 400;
  config.real_image_max_bytes = 0;  // All imagery opaque.
  ContentUniverse universe(config);
  int images = 0;
  int other = 0;
  for (int i = 0; i < 400; ++i) {
    std::string url = universe.UrlAt(i);
    ContentPtr content = universe.GetContent(url);
    if (content->filler() == Filler::kNone) {
      continue;  // HTML or an error page: real bytes.
    }
    bool image = content->filler() == Filler::kUniverseImage;
    images += image ? 1 : 0;
    other += image ? 0 : 1;
    EXPECT_FALSE(content->materialized()) << url;
    EXPECT_EQ(content->bytes(),
              EagerUniverseBytes(config.seed ^ Fnv1a(url) ^ 0xC0FFEE,
                                 universe.ModeledSize(url), image))
        << url;
  }
  EXPECT_GT(images, 100);
  EXPECT_GT(other, 10);
}

TEST(OpaqueContentTest, DistillerOutputIsItsEagerBytes) {
  JpegDistiller jpeg;
  GifDistiller gif;
  for (int64_t in_size : {int64_t{1000}, int64_t{10001}, int64_t{24000}}) {
    SCOPED_TRACE(in_size);
    for (TaccWorker* distiller : std::vector<TaccWorker*>{&jpeg, &gif}) {
      TaccRequest request;
      request.url = kUrlB;
      request.inputs.push_back(
          Content::MakeOpaque(kUrlB, MimeType::kGif, Filler::kUniverseImage, 5, in_size));
      TaccResult result = distiller->Process(request);
      ASSERT_TRUE(result.status.ok());
      EXPECT_FALSE(request.input()->materialized());  // The magic check read the descriptor.
      ASSERT_EQ(result.output->filler(), Filler::kDistilled);
      EXPECT_FALSE(result.output->materialized());
      EXPECT_EQ(result.output->bytes(), EagerDistilledBytes(kUrlB, result.output->size()));
    }
  }
}

TEST(OpaqueContentTest, MagicChecksMatchMaterializedBytes) {
  Rng rng(3);
  RasterImage photo = SynthesizePhoto(&rng, 32, 24);
  for (int64_t size : kSizes) {
    for (const ContentPtr& content : OpaqueVariants(size)) {
      EXPECT_FALSE(IsJpeg(*content));
      EXPECT_FALSE(IsGif(*content));
      EXPECT_EQ(content->materialized(), size == 0);
      EXPECT_EQ(IsJpeg(*content), IsJpeg(content->bytes()));
      EXPECT_EQ(IsGif(*content), IsGif(content->bytes()));
    }
  }
  ContentPtr jpeg = Content::Make(kUrlA, MimeType::kJpeg, JpegEncode(photo, 50));
  ContentPtr gif = Content::Make(kUrlB, MimeType::kGif, GifEncode(photo, 64));
  EXPECT_TRUE(IsJpeg(*jpeg));
  EXPECT_FALSE(IsGif(*jpeg));
  EXPECT_TRUE(IsGif(*gif));
  EXPECT_FALSE(IsJpeg(*gif));
}

// SameBytes must agree with comparing the materialized bytes, either way round.
void ExpectSameBytesMatchesByteComparison(const ContentPtr& a, const ContentPtr& b,
                                          bool expected) {
  bool same = SameBytes(*a, *b);
  EXPECT_EQ(SameBytes(*b, *a), same);
  EXPECT_EQ(same, a->bytes() == b->bytes());
  EXPECT_EQ(same, expected);
}

// Where the descriptors decide it, SameBytes must also leave both operands as
// they were.
void ExpectDecidedByDescriptors(const ContentPtr& a, const ContentPtr& b, bool expected) {
  bool a_was = a->materialized();
  bool b_was = b->materialized();
  SameBytes(*a, *b);
  SameBytes(*b, *a);
  EXPECT_EQ(a->materialized(), a_was);
  EXPECT_EQ(b->materialized(), b_was);
  ExpectSameBytesMatchesByteComparison(a, b, expected);
}

TEST(OpaqueContentTest, SameBytesOnOnePointer) {
  for (int64_t size : kSizes) {
    for (const ContentPtr& c : OpaqueVariants(size)) {
      ExpectDecidedByDescriptors(c, c, true);
    }
  }
}

TEST(OpaqueContentTest, SameBytesOnEqualDescriptorsBehindTwoPointers) {
  for (int64_t size : kSizes) {
    std::vector<ContentPtr> a = OpaqueVariants(size);
    std::vector<ContentPtr> b = OpaqueVariants(size);
    for (size_t i = 0; i < a.size(); ++i) {
      ExpectDecidedByDescriptors(a[i], b[i], true);
    }
  }
}

TEST(OpaqueContentTest, SameBytesOnSameSizeWithDifferentSeed) {
  for (int64_t size : kSizes) {
    SCOPED_TRACE(size);
    // An image of 2 bytes is only its "XX" magic; every other nonempty size
    // has a random byte to tell the seeds apart.
    bool image_equal = size == 0 || size == 2;
    auto image = [size](uint64_t seed) {
      return Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, seed, size);
    };
    auto other = [size](uint64_t seed) {
      return Content::MakeOpaque(kUrlA, MimeType::kOther, Filler::kUniverseOther, seed, size);
    };
    auto distilled = [size](const std::string& url) {
      return Content::MakeOpaque(url, MimeType::kJpeg, Filler::kDistilled, Fnv1a(url), size);
    };
    ExpectSameBytesMatchesByteComparison(image(17), image(18), image_equal);
    ExpectSameBytesMatchesByteComparison(other(17), other(18), size == 0);
    ExpectSameBytesMatchesByteComparison(distilled(kUrlA), distilled(kUrlB), image_equal);
  }
}

TEST(OpaqueContentTest, SameBytesOnDifferentSizes) {
  for (Filler filler : {Filler::kUniverseImage, Filler::kUniverseOther, Filler::kDistilled}) {
    for (int64_t size : kSizes) {
      ContentPtr a = Content::MakeOpaque(kUrlA, MimeType::kJpeg, filler, 17, size);
      ContentPtr b = Content::MakeOpaque(kUrlA, MimeType::kJpeg, filler, 17, size + 1);
      ExpectDecidedByDescriptors(a, b, false);
    }
  }
}

TEST(OpaqueContentTest, SameBytesOnOpaqueAgainstRealContent) {
  for (int64_t size : kSizes) {
    SCOPED_TRACE(size);
    for (const ContentPtr& opaque : OpaqueVariants(size)) {
      // The bytes come from a twin with the same descriptor, so that `opaque`
      // reaches SameBytes unmaterialized.
      auto twin = [&opaque] {
        return Content::MakeOpaque(opaque->url, opaque->mime, opaque->filler(), opaque->seed(),
                                   opaque->size());
      };
      std::vector<uint8_t> bytes = twin()->bytes();
      ContentPtr real = Content::Make(opaque->url, opaque->mime, bytes);
      ExpectSameBytesMatchesByteComparison(opaque, real, true);
      if (!bytes.empty()) {
        // Flip the last byte: a mismatch past the first word.
        std::vector<uint8_t> changed = bytes;
        changed.at(changed.size() - 1) ^= 1;
        ExpectSameBytesMatchesByteComparison(
            twin(), Content::Make(opaque->url, opaque->mime, changed), false);
      }
    }
  }
}

TEST(OpaqueContentTest, SameBytesOnTwoByteImagesThatAreOnlyMagic) {
  // Every 2-byte opaque image is "XX", whatever its generator or seed.
  ContentPtr a = Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 17, 2);
  ContentPtr b = Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 18, 2);
  ContentPtr c = Content::MakeOpaque(kUrlB, MimeType::kJpeg, Filler::kDistilled, Fnv1a(kUrlB), 2);
  ContentPtr real = Content::Make(kUrlA, MimeType::kJpeg, {'X', 'X'});
  ExpectSameBytesMatchesByteComparison(a, b, true);
  ExpectSameBytesMatchesByteComparison(
      Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 17, 2), c, true);
  ExpectSameBytesMatchesByteComparison(
      Content::MakeOpaque(kUrlB, MimeType::kJpeg, Filler::kDistilled, Fnv1a(kUrlB), 2), real,
      true);
  // kOther filler has no magic: its two bytes are random.
  ContentPtr raw = Content::MakeOpaque(kUrlA, MimeType::kOther, Filler::kUniverseOther, 17, 2);
  ExpectSameBytesMatchesByteComparison(
      raw, Content::MakeOpaque(kUrlA, MimeType::kJpeg, Filler::kUniverseImage, 17, 2), false);
}

TEST(OpaqueContentTest, SameBytesAgreesWithByteComparisonOnEveryPair) {
  for (int64_t size : kSizes) {
    size_t n = OpaqueVariants(size).size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        ContentPtr a = OpaqueVariants(size)[i];
        ContentPtr b = OpaqueVariants(size)[j];
        EXPECT_EQ(SameBytes(*a, *b), a->bytes() == b->bytes()) << "size=" << size << " i=" << i << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace sns
