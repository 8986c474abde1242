// Property tests: the flat-table SignatureEngine is bit-identical to the
// node-based BaselineSignatureEngine on randomized pattern/payload corpora
// (satellite of the data-plane speed PR; the flat engine is only allowed
// to be faster, never different).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nids/signature.h"
#include "support/signature_baseline.h"
#include "util/rng.h"

namespace nwlb::nids {
namespace {

std::string random_string(util::Rng& rng, std::size_t min_len, std::size_t max_len,
                          int alphabet) {
  const std::size_t len = min_len + rng() % (max_len - min_len + 1);
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng() % static_cast<std::uint64_t>(alphabet));
  return s;
}

void expect_identical(const SignatureEngine& flat, const BaselineSignatureEngine& baseline,
                      std::string_view payload) {
  ASSERT_EQ(flat.count_matches(payload), baseline.count_matches(payload));
  const auto got = flat.scan(payload);
  const auto want = baseline.scan(payload);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pattern_id, want[i].pattern_id) << "match " << i;
    EXPECT_EQ(got[i].end_offset, want[i].end_offset) << "match " << i;
  }
}

TEST(SignatureParity, DefaultRulesOnCraftedPayloads) {
  const SignatureEngine flat(SignatureEngine::default_rules());
  const BaselineSignatureEngine baseline(SignatureEngine::default_rules());
  EXPECT_EQ(flat.num_states(), baseline.num_states());
  const std::vector<std::string> payloads = {
      "",
      "plain benign text with nothing in it",
      "GET /admin/config.php HTTP/1.1",
      "xxSELECT * FROM usersxxUNION SELECT passwordxx",
      "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",  // Overlapping self-matches.
      std::string("\x90\x90\x90\x90\x90\x90\x90", 7),
      "metasploit meterpreter reverse_tcp bind_shell heap spray",
      std::string(1, '\0') + "%00%00%00%00" + std::string(3, '\0'),
  };
  for (const auto& payload : payloads) expect_identical(flat, baseline, payload);
}

TEST(SignatureParity, RandomizedCorporaSmallAlphabet) {
  // A 3-letter alphabet maximizes overlap: dense fail chains, inherited
  // outputs, multi-pattern hits at one offset — the hard cases for the
  // flattened output ranges.
  util::Rng rng(0xac0ffee);
  for (int round = 0; round < 30; ++round) {
    const int num_patterns = 1 + static_cast<int>(rng() % 12);
    std::vector<std::string> patterns;
    patterns.reserve(static_cast<std::size_t>(num_patterns));
    for (int p = 0; p < num_patterns; ++p)
      patterns.push_back(random_string(rng, 1, 6, 3));
    const SignatureEngine flat(patterns);
    const BaselineSignatureEngine baseline(patterns);
    ASSERT_EQ(flat.num_states(), baseline.num_states());
    for (int t = 0; t < 20; ++t) {
      const std::string payload = random_string(rng, 0, 400, 3);
      expect_identical(flat, baseline, payload);
    }
  }
}

TEST(SignatureParity, RandomizedCorporaFullByteRange) {
  util::Rng rng(0xdecade);
  for (int round = 0; round < 10; ++round) {
    const int num_patterns = 1 + static_cast<int>(rng() % 20);
    std::vector<std::string> patterns;
    for (int p = 0; p < num_patterns; ++p) {
      std::string s(1 + rng() % 10, '\0');
      for (auto& c : s) c = static_cast<char>(rng() & 0xff);
      patterns.push_back(std::move(s));
    }
    const SignatureEngine flat(patterns);
    const BaselineSignatureEngine baseline(patterns);
    for (int t = 0; t < 10; ++t) {
      std::string payload(rng() % 600, '\0');
      for (auto& c : payload) c = static_cast<char>(rng() & 0xff);
      expect_identical(flat, baseline, payload);
      // And payloads stitched from the patterns themselves (guaranteed hits).
      std::string stitched;
      for (int k = 0; k < 5; ++k)
        stitched += patterns[rng() % patterns.size()];
      expect_identical(flat, baseline, stitched);
    }
  }
}

TEST(SignatureParity, DuplicateAndNestedPatterns) {
  // Duplicate ids, substrings, and identical suffixes stress the
  // own-then-fail-chain output ordering.
  const std::vector<std::string> patterns = {"abc", "abc", "bc", "c", "abcabc", "cab"};
  const SignatureEngine flat(patterns);
  const BaselineSignatureEngine baseline(patterns);
  for (const char* payload : {"abcabcabc", "cababc", "ccccc", "xyzabc", "ab"})
    expect_identical(flat, baseline, payload);
}

TEST(SignatureParity, BatchCountsMatchPerPayloadCounts) {
  // The interleaved batch must be arithmetic-identical to the single-payload
  // loop (and therefore to the baseline).  Full groups run four lanes wide
  // and a remainder of two or three runs two or three lanes wide, so sizes 1
  // to 9 reach every remainder after zero, one and two full groups, and 37
  // runs nine full groups and a lone payload.  Equal lengths keep every lane
  // in lock-step to the end; uneven ones (empty payloads included) finish
  // the longer lanes on the single-stream tail.
  util::Rng rng(0xba7c4);
  const SignatureEngine flat(SignatureEngine::default_rules());
  const BaselineSignatureEngine baseline(SignatureEngine::default_rules());
  const std::vector<std::string> plants = {"metasploit", "DROP TABLE users", "/etc/passwd",
                                           "AAAAAAAAAAAAAAAAAA"};
  std::size_t total_matches = 0;
  for (const bool uneven : {false, true}) {
    for (const std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 37}) {
      for (int round = 0; round < 4; ++round) {
        const std::size_t length = 20 + rng() % 200;
        std::vector<std::string> owned;
        for (std::size_t i = 0; i < n; ++i) {
          std::string payload = uneven ? random_string(rng, 0, 300, 26)
                                       : random_string(rng, length, length, 26);
          // Planted over existing bytes, so equal lengths stay equal.
          const std::string& plant = plants[rng() % plants.size()];
          if (rng() % 2 == 0 && plant.size() <= payload.size())
            payload.replace(rng() % (payload.size() - plant.size() + 1), plant.size(), plant);
          owned.push_back(std::move(payload));
        }
        const std::vector<std::string_view> views(owned.begin(), owned.end());
        std::vector<std::size_t> counts(n, ~std::size_t{0});
        flat.count_matches_batch(views.data(), counts.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(counts[i], flat.count_matches(views[i]))
              << "batch of " << n << (uneven ? ", uneven" : ", equal") << ", payload " << i;
          EXPECT_EQ(counts[i], baseline.count_matches(views[i]))
              << "batch of " << n << (uneven ? ", uneven" : ", equal") << ", payload " << i;
          total_matches += counts[i];
        }
      }
    }
  }
  EXPECT_GT(total_matches, 0u);  // The planted signatures were counted.
}

TEST(SignatureParity, RejectsEmptyPattern) {
  EXPECT_THROW(SignatureEngine({"ok", ""}), std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::nids
