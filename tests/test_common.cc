// Tests for the shared utilities (src/common/*): bit manipulation, the
// deterministic RNG, and the table/format helpers the bench harness
// renders the paper's tables with.
#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutil.h"
#include "common/rng.h"
#include "common/table.h"

namespace cryptopim {
namespace {

TEST(BitUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(512));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1536));
}

TEST(BitUtil, Ilog2AndBitLength) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(512), 9u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(bit_length(0), 0u);
  EXPECT_EQ(bit_length(1), 1u);
  EXPECT_EQ(bit_length(7681), 13u);
  EXPECT_EQ(bit_length(786433), 20u);
}

TEST(BitUtil, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bit_reverse(1, 15), 1u << 14);
  // Involution over the full domain for a small width.
  for (std::uint64_t x = 0; x < 256; ++x) {
    EXPECT_EQ(bit_reverse(bit_reverse(x, 8), 8), x);
  }
}

TEST(BitUtil, SetBitPositions) {
  EXPECT_EQ(set_bit_positions(0), (std::vector<unsigned>{}));
  EXPECT_EQ(set_bit_positions(0b1011), (std::vector<unsigned>{0, 1, 3}));
  EXPECT_EQ(set_bit_positions(1ull << 63), (std::vector<unsigned>{63}));
}

TEST(BitUtil, NafDecomposeKnownValues) {
  // 7 = 8 - 1 in NAF.
  const auto t7 = naf_decompose(7);
  ASSERT_EQ(t7.size(), 2u);
  EXPECT_EQ(eval_shift_add(1, t7.data(), t7.size()), 7u);
  // 12289 = 2^14 - 2^12 + 1 canonically.
  const auto t = naf_decompose(12289);
  EXPECT_EQ(eval_shift_add(1, t.data(), t.size()), 12289u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Xoshiro256 c(124);
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowInRangeAndWellSpread) {
  Xoshiro256 rng(9);
  std::size_t buckets[10] = {};
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const auto b : buckets) {
    EXPECT_GT(b, 800u);
    EXPECT_LT(b, 1200u);
  }
}

// The division-per-draw sampler BoundedUniform replaced: the reference
// its values and stream position must match draw for draw.
std::uint64_t next_below_by_division(Xoshiro256& rng, std::uint64_t bound) {
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = rng.next();
  while (v >= limit) v = rng.next();
  return v % bound;
}

void expect_same_stream(std::uint64_t bound, std::size_t draws,
                        std::uint64_t seed) {
  Xoshiro256 ref(seed), got(seed), one(seed);
  const BoundedUniform below(bound);
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint64_t want = next_below_by_division(ref, bound);
    ASSERT_EQ(below(got), want) << "bound " << bound << " draw " << i;
    ASSERT_EQ(one.next_below(bound), want) << "bound " << bound;
  }
  EXPECT_EQ(got.digest(), ref.digest()) << "bound " << bound;
  EXPECT_EQ(one.digest(), ref.digest()) << "bound " << bound;
}

TEST(Rng, BoundedUniformMatchesDivisionOnPaperModuli) {
  // Every paper modulus, one million draws each.
  for (const std::uint64_t q : {7681u, 12289u, 786433u}) {
    expect_same_stream(q, 1u << 20, q);
  }
}

TEST(Rng, BoundedUniformMatchesDivisionOnSmallAndWideBounds) {
  // Small bounds (one million draws in all), and wide ones where the
  // rejection limit and the quotient estimate sit at their extremes.
  for (std::uint64_t bound = 1; bound <= 64; ++bound) {
    expect_same_stream(bound, 1u << 14, bound * 977);
  }
  for (const std::uint64_t bound :
       {(std::uint64_t{1} << 32) + 15, (std::uint64_t{1} << 63) - 1,
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 5,
        ~std::uint64_t{0} - 1, ~std::uint64_t{0}}) {
    expect_same_stream(bound, 1u << 12, bound ^ 0x5eed);
  }
}

TEST(Rng, BoundedUniformRemainderIsExact) {
  // The reciprocal remainder on the values next to every multiple of the
  // bound, where a quotient estimate off by one would show.
  Xoshiro256 rng(77);
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{7681}, std::uint64_t{12289}, std::uint64_t{786433},
        std::uint64_t{1} << 40, (std::uint64_t{1} << 63) + 5,
        ~std::uint64_t{0}}) {
    const BoundedUniform below(bound);
    for (const std::uint64_t v : {std::uint64_t{0}, ~std::uint64_t{0},
                                  ~std::uint64_t{0} - 1, bound - 1, bound,
                                  bound + 1}) {
      EXPECT_EQ(below.mod(v), v % bound) << bound << " " << v;
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t k = rng.next() / bound;
      for (const std::uint64_t v : {k * bound, k * bound - 1, rng.next()}) {
        ASSERT_EQ(below.mod(v), v % bound) << bound << " " << v;
      }
    }
  }
}

TEST(Rng, NextBitsMasks) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.next_bits(5), 32u);
    EXPECT_LT(rng.next_bits(1), 2u);
  }
}

TEST(Format, Numbers) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_f(-1.5, 1), "-1.5");
  EXPECT_EQ(fmt_i(0), "0");
  EXPECT_EQ(fmt_i(999), "999");
  EXPECT_EQ(fmt_i(553311), "553,311");
  EXPECT_EQ(fmt_i(1234567890), "1,234,567,890");
  EXPECT_EQ(fmt_x(12.72, 1), "12.7x");
  EXPECT_EQ(fmt_pct(0.29, 1), "+29.0%");
  EXPECT_EQ(fmt_pct(-0.052, 1), "-5.2%");
}

TEST(Format, TimeUnits) {
  EXPECT_EQ(fmt_time_s(1.5), "1.50 s");
  EXPECT_EQ(fmt_time_s(68.67e-6), "68.67 us");
  EXPECT_EQ(fmt_time_s(1.1e-9), "1.10 ns");
  EXPECT_EQ(fmt_time_s(12.76e-3), "12.76 ms");
}

TEST(Table, AlignsAndSeparates) {
  Table t({"a", "bbbb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, two rows, four rules.
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"x", "y", "z"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print(os);  // must not crash; missing cells render empty
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, CsvExport) {
  Table t({"n", "latency"});
  t.add_row({"256", "68.67"});
  t.add_row({"512", "75.90"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "n,latency\n256,68.67\n512,75.90\n");
}

}  // namespace
}  // namespace cryptopim
