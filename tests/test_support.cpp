// Unit tests for src/support: CLI parser, RNG, table, CSV, checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace nadmm {
namespace {

// ---------------------------------------------------------------- checks

TEST(Check, ThrowsInvalidArgumentWithMessage) {
  try {
    NADMM_CHECK(1 == 2, "custom context");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, AssertThrowsRuntimeError) {
  EXPECT_THROW(NADMM_ASSERT(false), RuntimeError);
  EXPECT_NO_THROW(NADMM_ASSERT(true));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_index(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 8, trials / 8 * 0.1);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, PoissonMeanMatchesSmallAndLargeLambda) {
  Rng rng(17);
  for (double lambda : {0.5, 3.0, 80.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.05 + 0.02) << "lambda=" << lambda;
  }
}

TEST(Rng, PoissonZeroRate) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, SplitGivesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // Parent's continued stream should not equal the child's.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesIntsDoublesStringsFlags) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count")
      .add_double("rate", 0.5, "a rate")
      .add_string("name", "default", "a name")
      .add_flag("verbose", "verbosity");
  const char* argv[] = {"prog", "--count", "10", "--rate=2.25",
                        "--name", "hello", "--verbose"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("count"), 10);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 2.25);
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_TRUE(cli.get_flag("verbose"));
  // No command reads positional arguments, so none is silently dropped.
  CliParser strict("test");
  strict.add_flag("verbose", "verbosity");
  const char* stray[] = {"prog", "--verbose", "positional"};
  try {
    static_cast<void>(strict.parse(3, stray));
    FAIL() << "a positional argument was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected argument 'positional'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count").add_flag("verbose", "v");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("count"), 5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), InvalidArgument);
}

TEST(Cli, MalformedIntThrowsOnAccess) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count");
  const char* argv[] = {"prog", "--count", "xyz"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(static_cast<void>(cli.get_int("count")), InvalidArgument);
}

TEST(Cli, EmptyAndOutOfRangeNumbersThrowOnAccess) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count").add_int("big", 0, "b");
  cli.add_double("rate", 0.5, "a rate");
  const char* argv[] = {"prog", "--count=", "--big=99999999999999999999",
                        "--rate=1e999"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW(static_cast<void>(cli.get_int("count")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(cli.get_int("big")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(cli.get_double("rate")), InvalidArgument);
}

TEST(Cli, ParseNumberTakesTheWholeTextOrNothing) {
  std::int64_t i = 0;
  EXPECT_TRUE(parse_number("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad :
       {"", "+5", " 5", "5 ", "0x10", "9223372036854775808"}) {
    EXPECT_FALSE(parse_number(bad, i)) << bad;
  }
  std::uint64_t u = 0;
  EXPECT_FALSE(parse_number("-1", u));
  double d = 0.0;
  EXPECT_TRUE(parse_number("1e-05", d));
  EXPECT_EQ(d, 1e-5);
  EXPECT_FALSE(parse_number("+1e-05", d));
  EXPECT_FALSE(parse_number("1e999", d));
}

TEST(Cli, GetIntAsRejectsValuesTheFieldCannotHold) {
  CliParser cli("test");
  cli.add_int("n", 0, "n").add_int("neg", 0, "neg");
  const char* argv[] = {"prog", "--n=4294967297", "--neg=-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int_as<std::int64_t>("n"), 4294967297);
  EXPECT_THROW(static_cast<void>(cli.get_int_as<int>("n")), InvalidArgument);
  EXPECT_EQ(cli.get_int_as<int>("neg"), -1);
  try {
    static_cast<void>(cli.get_int_as<std::uint64_t>("neg"));
    FAIL() << "a negative value must not wrap into an unsigned field";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--neg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'-1'"), std::string::npos);
  }
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count");
  const char* argv[] = {"prog", "--count"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, WrongTypeAccessThrows) {
  CliParser cli("test");
  cli.add_int("count", 5, "a count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW(static_cast<void>(cli.get_double("count")), InvalidArgument);
  EXPECT_THROW(static_cast<void>(cli.get_int("never-registered")), InvalidArgument);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(-42), "-42");
}

// ---------------------------------------------------------------- csv

TEST(Csv, RoundTripNumericRows) {
  const std::string path = testing::TempDir() + "/nadmm_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row(std::vector<double>{1.5, 2.5});
    csv.add_row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::filesystem::remove(path);
}

TEST(Csv, ArityMismatchThrows) {
  const std::string path = testing::TempDir() + "/nadmm_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row(std::vector<std::string>{"one"}), InvalidArgument);
  std::filesystem::remove(path);
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), RuntimeError);
}

// ---------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  const double t0 = t.seconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), t0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace nadmm
