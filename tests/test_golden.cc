/**
 * @file
 * Golden digests: every shipped scenario (scenarios/<name>.toml) is
 * run through `polcactl run --out-dir` at a short horizon, and each
 * row of every CSV artifact (result.csv, metrics.csv, domains.csv, ...
 * for single runs; summary.csv and the per-point CSVs for sweeps) is
 * hashed with FNV-1a and compared with the digests committed in
 * tests/golden/.
 * Rerun-against-rerun checks cannot see a change that shifts every
 * run the same way; this test compares today's outputs with the
 * recorded ones and names the first differing file and row.
 *
 * Update flow (see tests/golden/README.md):
 *
 *   ./build/tests/test_golden --update-golden
 *
 * rewrites the digest files from the current build.  `git diff
 * tests/golden/` then shows every changed row, and the change that
 * moves a digest must justify each one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/manifest.hh"
#include "sim/logging.hh"

namespace {

namespace fs = std::filesystem;

bool updateGolden = false;

/** Horizon overrides for scenarios whose shipped duration is too long
 *  for a test; every other scenario runs as shipped. */
const std::map<std::string, std::vector<std::string>> kOverrides = {
    {"quickstart", {"experiment.duration=2h"}},
};

/** Compiler and C library this binary (and polcactl, built in the
 *  same tree) was compiled with; recorded next to the digests. */
std::string
toolchain()
{
    std::ostringstream os;
#if defined(__clang__)
    os << "clang " << __clang_major__ << '.' << __clang_minor__ << '.'
       << __clang_patchlevel__;
#elif defined(__GNUC__)
    os << "gcc " << __GNUC__ << '.' << __GNUC_MINOR__ << '.'
       << __GNUC_PATCHLEVEL__;
#else
    os << "unknown compiler";
#endif
#if defined(__GLIBC__)
    os << ", glibc " << __GLIBC__ << '.' << __GLIBC_MINOR__;
#else
    os << ", unknown libc";
#endif
    return os.str();
}

struct RowDigest
{
    std::string file;
    std::size_t row = 0;   ///< 1-based line number
    std::string digest;
};

struct Golden
{
    std::string toolchain;
    std::vector<RowDigest> rows;
};

std::vector<std::string>
shippedScenarios()
{
    std::vector<std::string> stems;
    for (const auto &entry :
         fs::directory_iterator(fs::path(POLCA_SOURCE_DIR) / "scenarios")) {
        if (entry.path().extension() == ".toml")
            stems.push_back(entry.path().stem().string());
    }
    std::sort(stems.begin(), stems.end());
    return stems;
}

fs::path
goldenPath(const std::string &stem)
{
    return fs::path(POLCA_SOURCE_DIR) / "tests" / "golden" /
        (stem + ".digests");
}

std::string
overrideArgs(const std::string &stem)
{
    std::string args;
    auto it = kOverrides.find(stem);
    if (it == kOverrides.end())
        return args;
    for (const std::string &set : it->second)
        args += " --set " + set;
    return args;
}

/** Run the scenario into a fresh directory; empty string on success,
 *  else a failure description. */
std::string
runScenario(const std::string &stem, const fs::path &outDir)
{
    fs::remove_all(outDir);
    fs::create_directories(outDir.parent_path());
    fs::path log = outDir.string() + ".log";
    std::string command = std::string("'") + POLCACTL_PATH +
        "' run --scenario-file '" + POLCA_SOURCE_DIR + "/scenarios/" +
        stem + ".toml'" + overrideArgs(stem) + " --out-dir '" +
        outDir.string() + "' > '" + log.string() + "' 2>&1";
    int status = std::system(command.c_str());
    // Exit 1 is an SLO verdict (e.g. the chaos scenario), not a crash.
    if (status == -1 || !WIFEXITED(status) ||
        (WEXITSTATUS(status) != 0 && WEXITSTATUS(status) != 1)) {
        return "polcactl failed (status " + std::to_string(status) +
            "); see " + log.string();
    }
    return {};
}

/** Digest every row of every CSV artifact in @p dir, files in name
 *  order. */
std::vector<RowDigest>
digestRunDir(const fs::path &dir, std::map<std::string,
             std::vector<std::string>> &text)
{
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".csv")
            files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());

    std::vector<RowDigest> rows;
    for (const std::string &file : files) {
        std::ifstream in(dir / file, std::ios::binary);
        std::string line;
        std::size_t row = 0;
        while (std::getline(in, line)) {
            ++row;
            rows.push_back({file, row, polca::obs::fnv1a64Hex(line)});
            text[file].push_back(line);
        }
    }
    return rows;
}

Golden
readGolden(const fs::path &path)
{
    Golden golden;
    std::ifstream in(path);
    std::string line;
    const std::string toolchainKey = "# toolchain: ";
    while (std::getline(in, line)) {
        if (line.rfind(toolchainKey, 0) == 0) {
            golden.toolchain = line.substr(toolchainKey.size());
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        RowDigest row;
        fields >> row.file >> row.row >> row.digest;
        golden.rows.push_back(row);
    }
    return golden;
}

void
writeGolden(const fs::path &path, const std::string &stem,
            const std::vector<RowDigest> &rows)
{
    std::ofstream out(path);
    out << "# Golden artifact digests for scenarios/" << stem
        << ".toml (see README.md).\n"
        << "# toolchain: " << toolchain() << "\n"
        << "# run: polcactl run --scenario-file scenarios/" << stem
        << ".toml" << overrideArgs(stem) << " --out-dir <dir>\n"
        << "# <artifact> <row> <FNV-1a 64 of the row's bytes>\n";
    for (const RowDigest &row : rows)
        out << row.file << ' ' << row.row << ' ' << row.digest << '\n';
}

/** First difference between @p golden and @p actual, or "". */
std::string
firstDifference(const std::vector<RowDigest> &golden,
                const std::vector<RowDigest> &actual,
                const std::map<std::string, std::vector<std::string>>
                    &text)
{
    std::size_t n = std::min(golden.size(), actual.size());
    for (std::size_t i = 0; i < n; ++i) {
        const RowDigest &g = golden[i];
        const RowDigest &a = actual[i];
        if (g.file != a.file || g.row != a.row) {
            return "artifact layout differs at " + g.file + " row " +
                std::to_string(g.row) + " (golden) vs " + a.file +
                " row " + std::to_string(a.row) + " (now): a file " +
                "or row was added or removed";
        }
        if (g.digest != a.digest) {
            return a.file + " row " + std::to_string(a.row) +
                " differs (golden " + g.digest + ", now " + a.digest +
                "): " + text.at(a.file)[a.row - 1];
        }
    }
    if (golden.size() > actual.size()) {
        const RowDigest &g = golden[n];
        return g.file + " row " + std::to_string(g.row) +
            " is missing from this run";
    }
    if (actual.size() > golden.size()) {
        const RowDigest &a = actual[n];
        return a.file + " row " + std::to_string(a.row) +
            " is new in this run: " + text.at(a.file)[a.row - 1];
    }
    return {};
}

class GoldenScenario : public ::testing::TestWithParam<std::string>
{};

TEST_P(GoldenScenario, ArtifactRowsMatchRecordedDigests)
{
    const std::string stem = GetParam();
    fs::path outDir = fs::path(GOLDEN_WORK_DIR) / stem;
    std::string failure = runScenario(stem, outDir);
    ASSERT_TRUE(failure.empty()) << stem << ": " << failure;

    std::map<std::string, std::vector<std::string>> text;
    std::vector<RowDigest> actual = digestRunDir(outDir, text);
    ASSERT_FALSE(actual.empty()) << stem << ": no CSV artifacts";

    fs::path path = goldenPath(stem);
    if (updateGolden) {
        writeGolden(path, stem, actual);
        return;
    }
    ASSERT_TRUE(fs::exists(path))
        << "no golden digests for scenarios/" << stem
        << ".toml; record them with test_golden --update-golden";

    Golden golden = readGolden(path);
    std::string diff = firstDifference(golden.rows, actual, text);
    if (!diff.empty() && golden.toolchain != toolchain()) {
        diff += "\n  note: digests were recorded with " +
            golden.toolchain + "; this build is " + toolchain() +
            " (a different libm can move printed digits)";
    }
    EXPECT_TRUE(diff.empty())
        << "scenarios/" << stem << ".toml: " << diff;
}

INSTANTIATE_TEST_SUITE_P(
    Shipped, GoldenScenario, ::testing::ValuesIn(shippedScenarios()),
    [](const ::testing::TestParamInfo<std::string> &scenario) {
        return scenario.param;
    });

TEST(Golden, NoDigestsForRemovedScenarios)
{
    std::vector<std::string> stems = shippedScenarios();
    for (const auto &entry : fs::directory_iterator(
             fs::path(POLCA_SOURCE_DIR) / "tests" / "golden")) {
        if (entry.path().extension() != ".digests")
            continue;
        std::string stem = entry.path().stem().string();
        EXPECT_TRUE(std::binary_search(stems.begin(), stems.end(), stem))
            << entry.path() << " has no scenarios/" << stem << ".toml";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            updateGolden = true;
        } else {
            std::fprintf(stderr, "test_golden: unknown argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    polca::sim::setQuiet(true);
    return RUN_ALL_TESTS();
}
