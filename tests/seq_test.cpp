#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "base/error.hpp"
#include "seq/alphabet.hpp"
#include "seq/fasta.hpp"
#include "seq/sequence.hpp"
#include "seq/synth.hpp"
#include "tests/test_util.hpp"

namespace mgpusw {
namespace {

// ---------------------------------------------------------------------------
// alphabet

TEST(AlphabetTest, RoundTrip) {
  for (const char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(seq::to_char(seq::from_char(c)), c);
  }
  EXPECT_EQ(seq::from_char('a'), seq::Nt::A);
  EXPECT_EQ(seq::from_char('t'), seq::Nt::T);
}

TEST(AlphabetTest, StrictBaseDetection) {
  EXPECT_TRUE(seq::is_strict_base('G'));
  EXPECT_TRUE(seq::is_strict_base('c'));
  EXPECT_FALSE(seq::is_strict_base('N'));
  EXPECT_FALSE(seq::is_strict_base('-'));
  EXPECT_FALSE(seq::is_strict_base('>'));
}

TEST(AlphabetTest, AmbiguityResolutionIsDeterministicAndVaried) {
  EXPECT_EQ(seq::resolve_ambiguous(5), seq::resolve_ambiguous(5));
  // Long N-runs must not collapse to one repeated letter.
  int histogram[4] = {0, 0, 0, 0};
  for (std::uint64_t i = 0; i < 400; ++i) {
    ++histogram[static_cast<int>(seq::resolve_ambiguous(i))];
  }
  for (const int count : histogram) {
    EXPECT_GT(count, 40);
  }
}

// ---------------------------------------------------------------------------
// Sequence

TEST(SequenceTest, BuildFromStringAndAccess) {
  const seq::Sequence s("s1", "ACGTACGT");
  ASSERT_EQ(s.size(), 8);
  EXPECT_EQ(s.at(0), seq::Nt::A);
  EXPECT_EQ(s.at(3), seq::Nt::T);
  EXPECT_EQ(s.at(7), seq::Nt::T);
  EXPECT_EQ(s.to_string(), "ACGTACGT");
  EXPECT_EQ(s.ambiguous_count(), 0);
}

TEST(SequenceTest, LowercaseAccepted) {
  const seq::Sequence s("s", "acgt");
  EXPECT_EQ(s.to_string(), "ACGT");
}

TEST(SequenceTest, AmbiguousCharactersCountedAndResolved) {
  const seq::Sequence s("s", "ANNNT");
  EXPECT_EQ(s.size(), 5);
  EXPECT_EQ(s.ambiguous_count(), 3);
  EXPECT_EQ(s.at(0), seq::Nt::A);
  EXPECT_EQ(s.at(4), seq::Nt::T);
}

TEST(SequenceTest, CrossesWordBoundaries) {
  // 2-bit packing stores 32 bases per word; check around the boundary.
  std::string bases;
  for (int i = 0; i < 100; ++i) bases.push_back("ACGT"[i % 4]);
  const seq::Sequence s("s", bases);
  ASSERT_EQ(s.size(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(seq::to_char(s.at(i)), bases[static_cast<std::size_t>(i)]);
  }
}

TEST(SequenceTest, ExtractMatchesAt) {
  const seq::Sequence s = testutil::random_sequence(200, 17);
  std::vector<seq::Nt> window(50);
  s.extract(33, 50, window.data());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(window[static_cast<std::size_t>(i)], s.at(33 + i));
  }
}

TEST(SequenceTest, ExtractOutOfRangeThrows) {
  const seq::Sequence s("s", "ACGT");
  std::vector<seq::Nt> out(4);
  EXPECT_THROW(s.extract(2, 3, out.data()), InvalidArgument);
  EXPECT_THROW(s.extract(-1, 2, out.data()), InvalidArgument);
}

TEST(SequenceTest, Subsequence) {
  const seq::Sequence s("s", "ACGTACGT");
  const seq::Sequence sub = s.subsequence(2, 4);
  EXPECT_EQ(sub.to_string(), "GTAC");
}

TEST(SequenceTest, Composition) {
  const seq::Sequence s("s", "AAACCGT");
  const auto counts = s.composition();
  EXPECT_EQ(counts[0], 3);  // A
  EXPECT_EQ(counts[1], 2);  // C
  EXPECT_EQ(counts[2], 1);  // G
  EXPECT_EQ(counts[3], 1);  // T
}

TEST(SequenceTest, EqualityIgnoresName) {
  const seq::Sequence a("x", "ACGT");
  const seq::Sequence b("y", "ACGT");
  const seq::Sequence c("x", "ACGA");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SequenceTest, PackedFootprintIsQuarterByte) {
  const seq::Sequence s = testutil::random_sequence(1 << 16, 3);
  EXPECT_LE(s.packed_bytes(), (1 << 16) / 4 + 8);
}

TEST(SequenceTest, EmptySequence) {
  const seq::Sequence s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
  EXPECT_EQ(s.to_string(), "");
}

// ---------------------------------------------------------------------------
// FASTA

TEST(FastaTest, ReadSingleRecord) {
  std::istringstream in(">chr1 test description\nACGT\nACGT\n");
  const auto records = seq::read_fasta(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name(), "chr1");
  EXPECT_EQ(records[0].to_string(), "ACGTACGT");
}

TEST(FastaTest, ReadMultipleRecords) {
  std::istringstream in(">a\nAC\nGT\n>b\nTTTT\n>c\nG\n");
  const auto records = seq::read_fasta(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
  EXPECT_EQ(records[1].to_string(), "TTTT");
  EXPECT_EQ(records[2].to_string(), "G");
}

TEST(FastaTest, HandlesWindowsLineEndingsAndBlankLines) {
  std::istringstream in(">a\r\nAC\r\n\r\nGT\r\n");
  const auto records = seq::read_fasta(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(FastaTest, IupacCodesResolvedDeterministically) {
  std::istringstream in1(">a\nANRYT\n");
  std::istringstream in2(">a\nANRYT\n");
  const auto r1 = seq::read_fasta(in1);
  const auto r2 = seq::read_fasta(in2);
  EXPECT_EQ(r1[0], r2[0]);
  EXPECT_EQ(r1[0].ambiguous_count(), 3);
}

TEST(FastaTest, UracilBecomesThymine) {
  std::istringstream in(">a\nAUG\n");
  const auto records = seq::read_fasta(in);
  EXPECT_EQ(records[0].to_string(), "ATG");
  EXPECT_EQ(records[0].ambiguous_count(), 0);
}

TEST(FastaTest, DataBeforeHeaderThrows) {
  std::istringstream in("ACGT\n>a\nACGT\n");
  EXPECT_THROW(seq::read_fasta(in), IoError);
}

TEST(FastaTest, IllegalCharacterThrows) {
  std::istringstream in(">a\nAC!T\n");
  EXPECT_THROW(seq::read_fasta(in), IoError);
}

TEST(FastaTest, CommentLinesSkipped) {
  std::istringstream in(">a\n;comment\nACGT\n");
  const auto records = seq::read_fasta(in);
  EXPECT_EQ(records[0].to_string(), "ACGT");
}

TEST(FastaTest, WriteReadRoundTrip) {
  std::vector<seq::Sequence> records;
  records.push_back(testutil::random_sequence(333, 5, "first"));
  records.push_back(testutil::random_sequence(70, 6, "second"));
  std::ostringstream out;
  seq::write_fasta(out, records, 50);
  std::istringstream in(out.str());
  const auto parsed = seq::read_fasta(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], records[0]);
  EXPECT_EQ(parsed[0].name(), "first");
  EXPECT_EQ(parsed[1], records[1]);
}

TEST(FastaTest, MissingFileThrows) {
  EXPECT_THROW(seq::read_fasta_file("/nonexistent/path.fa"), IoError);
}

// ---------------------------------------------------------------------------
// synthetic genomes

TEST(SynthTest, GenerateLengthAndDeterminism) {
  const auto a = seq::generate_chromosome("c", 10'000, 42);
  const auto b = seq::generate_chromosome("c", 10'000, 42);
  const auto c = seq::generate_chromosome("c", 10'000, 43);
  EXPECT_EQ(a.size(), 10'000);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SynthTest, GcContentRespected) {
  const auto low = seq::generate_chromosome("c", 50'000, 1, 0.30);
  const auto high = seq::generate_chromosome("c", 50'000, 1, 0.60);
  auto gc = [](const seq::Sequence& s) {
    const auto counts = s.composition();
    return static_cast<double>(counts[1] + counts[2]) /
           static_cast<double>(s.size());
  };
  EXPECT_NEAR(gc(low), 0.30, 0.02);
  EXPECT_NEAR(gc(high), 0.60, 0.02);
}

// Longest run of one repeated base.
std::int64_t longest_homopolymer(const seq::Sequence& s) {
  std::int64_t best = s.empty() ? 0 : 1;
  std::int64_t run = 1;
  for (std::int64_t i = 1; i < s.size(); ++i) {
    run = s.at(i) == s.at(i - 1) ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

// Shannon entropy in bits of the sequence's k-mer distribution.
double kmer_entropy(const seq::Sequence& s, int k) {
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  std::vector<std::int64_t> counts(mask + 1, 0);
  std::uint64_t code = 0;
  for (std::int64_t i = 0; i < s.size(); ++i) {
    code = ((code << 2) | static_cast<std::uint64_t>(s.at(i))) & mask;
    if (i >= k - 1) ++counts[code];
  }
  const double total = static_cast<double>(std::max<std::int64_t>(
      s.size() - k + 1, 1));
  double entropy = 0.0;
  for (const std::int64_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

TEST(SynthTest, GeneratedChromosomeIsNotRepetitive) {
  // The generator must not produce pathological repeats that would make
  // alignment scores meaningless.
  const auto chromosome = seq::generate_chromosome("c", 50'000, 11);
  EXPECT_LT(longest_homopolymer(chromosome), 20);
  EXPECT_GT(kmer_entropy(chromosome, 8), 14.0);
}

TEST(SynthTest, BadGcContentThrows) {
  EXPECT_THROW(seq::generate_chromosome("c", 10, 1, 0.0), InvalidArgument);
  EXPECT_THROW(seq::generate_chromosome("c", 10, 1, 1.0), InvalidArgument);
}

TEST(SynthTest, MutateHomologDivergence) {
  const auto ancestor = seq::generate_chromosome("c", 100'000, 7);
  seq::MutationModel model;
  model.snp_rate = 0.02;
  model.indel_rate = 0.0;
  model.segment_rate = 0.0;
  seq::MutationStats stats;
  const auto homolog =
      seq::mutate_homolog(ancestor, model, 9, "homolog", &stats);
  EXPECT_EQ(homolog.size(), ancestor.size());  // no indels
  EXPECT_NEAR(stats.divergence(ancestor.size()), 0.02, 0.005);
  EXPECT_EQ(stats.insertions + stats.deletions, 0);
}

TEST(SynthTest, SubstitutionsAlwaysChangeBase) {
  const auto ancestor = seq::generate_chromosome("c", 20'000, 3);
  seq::MutationModel model;
  model.snp_rate = 1.0;  // substitute every base
  model.indel_rate = 0.0;
  model.segment_rate = 0.0;
  const auto homolog = seq::mutate_homolog(ancestor, model, 4, "h");
  for (std::int64_t i = 0; i < ancestor.size(); ++i) {
    EXPECT_NE(ancestor.at(i), homolog.at(i)) << "position " << i;
  }
}

TEST(SynthTest, IndelsChangeLength) {
  const auto ancestor = seq::generate_chromosome("c", 50'000, 5);
  seq::MutationModel model;
  model.snp_rate = 0.0;
  model.indel_rate = 0.01;
  model.segment_rate = 0.0;
  seq::MutationStats stats;
  const auto homolog =
      seq::mutate_homolog(ancestor, model, 6, "h", &stats);
  EXPECT_GT(stats.insertions + stats.deletions, 0);
  EXPECT_EQ(homolog.size(), ancestor.size() + stats.inserted_bases -
                                stats.deleted_bases);
}

TEST(SynthTest, PaperChromosomePairs) {
  const auto& pairs = seq::paper_chromosome_pairs();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].id, "chr19");
  EXPECT_EQ(pairs[2].id, "chr21");
  EXPECT_EQ(pairs[2].human_length, 46'944'323);
  EXPECT_EQ(pairs[2].chimp_length, 32'799'110);
  for (const auto& pair : pairs) {
    EXPECT_GT(pair.matrix_cells(), 1'000'000'000'000LL);  // megabase scale
  }
}

TEST(SynthTest, ScaledPairKeepsRatio) {
  const auto pair = seq::paper_chromosome_pairs()[2];
  const auto scaled = seq::scaled_pair(pair, 1000);
  EXPECT_EQ(scaled.human_length, pair.human_length / 1000);
  EXPECT_EQ(scaled.chimp_length, pair.chimp_length / 1000);
  const auto tiny = seq::scaled_pair(pair, 1'000'000'000);
  EXPECT_EQ(tiny.human_length, 1024);  // floor
}

TEST(SynthTest, HomologPairShapesAndSimilarity) {
  const auto spec = seq::scaled_pair(seq::paper_chromosome_pairs()[2], 4096);
  const auto pair = seq::make_homolog_pair(spec, 11);
  EXPECT_EQ(pair.query.size(), spec.human_length);
  EXPECT_EQ(pair.subject.size(), spec.chimp_length);
  // The two sides share an ancestor: the leading bases should be far more
  // similar than random (~25% identity for random DNA).
  std::int64_t same = 0;
  const std::int64_t probe =
      std::min<std::int64_t>(2000, std::min(pair.query.size(),
                                            pair.subject.size()));
  for (std::int64_t i = 0; i < probe; ++i) {
    if (pair.query.at(i) == pair.subject.at(i)) ++same;
  }
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(probe), 0.6);
}

TEST(SynthTest, HomologPairDeterministic) {
  const auto spec = seq::scaled_pair(seq::paper_chromosome_pairs()[0], 8192);
  const auto a = seq::make_homolog_pair(spec, 21);
  const auto b = seq::make_homolog_pair(spec, 21);
  EXPECT_EQ(a.query, b.query);
  EXPECT_EQ(a.subject, b.subject);
}

}  // namespace
}  // namespace mgpusw
