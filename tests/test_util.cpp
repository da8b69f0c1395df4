#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/cli.hpp"
#include "util/flops.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bonsai {
namespace {

TEST(Random, DeterministicForFixedSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Random, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformMeanAndVariance) {
  Xoshiro256 rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 5e-3);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 5e-3);
}

TEST(Random, GaussianMoments) {
  Xoshiro256 rng(13);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 1e-2);
  EXPECT_NEAR(s.stddev(), 1.0, 1e-2);
}

TEST(Random, UnitSphereIsUnitAndIsotropic) {
  Xoshiro256 rng(17);
  RunningStats sx, sy, sz;
  for (int i = 0; i < 50000; ++i) {
    const Vec3d v = rng.unit_sphere();
    EXPECT_NEAR(norm(v), 1.0, 1e-12);
    sx.add(v.x);
    sy.add(v.y);
    sz.add(v.z);
  }
  EXPECT_NEAR(sx.mean(), 0.0, 1e-2);
  EXPECT_NEAR(sy.mean(), 0.0, 1e-2);
  EXPECT_NEAR(sz.mean(), 0.0, 1e-2);
}

TEST(Random, Hash64IsDeterministicAndSpread) {
  EXPECT_EQ(hash64(123), hash64(123));
  EXPECT_NE(hash64(123), hash64(124));
}

TEST(Flops, PaperOperationCounts) {
  // §VI-A: 23 flops per p-p, 65 per p-c, rsqrt counted as 4.
  EXPECT_EQ(kFlopsPerPP, 23u);
  EXPECT_EQ(kFlopsPerPC, 65u);
  EXPECT_EQ(kFlopsPerRsqrt, 4u);
  // p-p: 4 sub + 3 mul + 2*6 fma + 4 rsqrt = 23.
  EXPECT_EQ(4 + 3 + 2 * 6 + 4, 23);
  // p-c: 4 sub + 6 add + 17 mul + 2*17 fma + 4 rsqrt = 65.
  EXPECT_EQ(4 + 6 + 17 + 2 * 17 + 4, 65);
}

TEST(Flops, InteractionStatsAccumulate) {
  InteractionStats a{100, 10};
  InteractionStats b{50, 5};
  a += b;
  EXPECT_EQ(a.p2p, 150u);
  EXPECT_EQ(a.p2c, 15u);
  EXPECT_EQ(a.flops(), 150u * 23u + 15u * 65u);
  EXPECT_DOUBLE_EQ(a.p2p_per_particle(15), 10.0);
  EXPECT_DOUBLE_EQ(a.p2c_per_particle(15), 1.0);
}

TEST(Flops, RateConversions) {
  EXPECT_DOUBLE_EQ(gflops_rate(2'000'000'000ull, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(tflops_rate(5'000'000'000'000ull, 2.5), 2.0);
  EXPECT_DOUBLE_EQ(gflops_rate(100, 0.0), 0.0);
}

TEST(TimeBreakdown, AccumulatesByNamePreservingOrder) {
  TimeBreakdown bd;
  bd.add("Sorting", 0.1);
  bd.add("Tree-construction", 0.2);
  bd.add("Sorting", 0.05);
  EXPECT_DOUBLE_EQ(bd.get("Sorting"), 0.15);
  EXPECT_DOUBLE_EQ(bd.get("Tree-construction"), 0.2);
  EXPECT_DOUBLE_EQ(bd.get("missing"), 0.0);
  EXPECT_NEAR(bd.total(), 0.35, 1e-15);
  ASSERT_EQ(bd.entries().size(), 2u);
  EXPECT_EQ(bd.entries()[0].name, "Sorting");
  EXPECT_EQ(bd.entries()[1].name, "Tree-construction");
}

TEST(Histogram1D, BinningAndPeak) {
  Histogram1D h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(5.6);
  h.add(9.999);
  h.add(10.0);   // out of range: dropped
  h.add(-0.01);  // out of range: dropped
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.count(5), 2.0);
  EXPECT_EQ(h.peak_bin(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Percentile, InterpolatesBetweenSamples) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(TextTable, AlignsColumnsAndPrintsHeaderRule) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

CommandLine make_cli() {
  CommandLine cli;
  cli.add_option("n", "N", "particle count");
  cli.add_option("theta", "T", "opening angle");
  cli.add_switch("verbose", "chatty output");
  cli.add_switch("validate", "check forces");
  cli.add_option("missing", "X", "never passed");
  cli.add_switch("quiet", "never passed");
  return cli;
}

TEST(CommandLine, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n=100", "--theta", "0.4", "input.dat", "--verbose"};
  CommandLine cli = make_cli();
  cli.parse(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("theta", 0.7), 0.4);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.dat");
}

TEST(CommandLine, RegisteredSwitchDoesNotSwallowPositional) {
  // The historical parser consumed "file.dat" as the value of --validate;
  // registration makes boolean switches value-free.
  const char* argv[] = {"prog", "--validate", "file.dat", "--n", "32"};
  CommandLine cli = make_cli();
  cli.parse(5, argv);
  EXPECT_TRUE(cli.get_bool("validate", false));
  EXPECT_EQ(cli.get_int("n", 0), 32);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.dat");
}

TEST(CommandLine, UnknownFlagAndMalformedValuesRaiseCliError) {
  CommandLine cli = make_cli();
  const char* unknown[] = {"prog", "--frobnicate"};
  EXPECT_THROW(cli.parse(2, unknown), CliError);

  CommandLine cli2 = make_cli();
  const char* bad_int[] = {"prog", "--n=abc", "--theta=x1", "--verbose=maybe"};
  cli2.parse(4, bad_int);  // parse accepts the strings...
  EXPECT_THROW(cli2.get_int("n", 0), CliError);  // ...typed access validates
  EXPECT_THROW(cli2.get_double("theta", 0.0), CliError);
  EXPECT_THROW(cli2.get_bool("verbose", false), CliError);
}

TEST(CommandLine, MissingValueAndNegatedSwitch) {
  CommandLine cli = make_cli();
  const char* missing[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, missing), CliError);

  CommandLine cli2 = make_cli();
  const char* neg[] = {"prog", "--verbose=false"};
  cli2.parse(2, neg);
  EXPECT_FALSE(cli2.get_bool("verbose", true));
}

TEST(CommandLine, HelpListsRegisteredFlags) {
  const CommandLine cli = make_cli();
  const std::string help = cli.help("prog", "test driver");
  EXPECT_NE(help.find("--n N"), std::string::npos);
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("chatty output"), std::string::npos);
}

}  // namespace
}  // namespace bonsai
