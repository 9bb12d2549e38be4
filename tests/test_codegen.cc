/**
 * @file
 * The C code-generation backend: golden source emission (matmul,
 * stencil, scalar-replaced, fringe), emitter determinism and name
 * hygiene, checksum agreement with the interpreter, the compiled
 * differential roundtrip over the whole evaluation suite
 * (self-skipping without a host compiler), the service "codegen" op,
 * the split request-error counters, and disk-cache byte-budget
 * eviction.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "codegen/c_emitter.hh"
#include "codegen/checksum.hh"
#include "codegen/compile.hh"
#include "driver/driver.hh"
#include "ir/interp.hh"
#include "parser/parser.hh"
#include "service/cache.hh"
#include "service/server.hh"
#include "support/json.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

const std::string kGoldenDir = UJAM_TEST_GOLDEN_DIR;

MachineModel
alpha()
{
    return MachineModel::decAlpha21064();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Compare text against a golden file; UJAM_UPDATE_GOLDEN rewrites
 * the file instead (and skips, like the lint renderer goldens).
 */
void
expectGolden(const std::string &name, const std::string &text)
{
    std::string path = kGoldenDir + "/" + name;
    if (std::getenv("UJAM_UPDATE_GOLDEN")) {
        std::ofstream(path) << text;
        GTEST_SKIP() << "golden updated: " << name;
    }
    EXPECT_EQ(text, readFile(path)) << name;
}

Program
suiteProgram(const std::string &name)
{
    return loadSuiteProgram(suiteLoop(name));
}

/** The default pipeline (normalize + unroll-and-jam + scalar
 * replacement) on one suite loop. */
Program
transformedProgram(const std::string &name)
{
    PipelineConfig config;
    config.threads = 1;
    config.optimizer.threads = 1;
    PipelineResult result =
        optimizeProgram(suiteProgram(name), alpha(), config);
    return result.program;
}

std::string
batch(UjamServer &server, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    server.runBatch(in, out);
    return out.str();
}

/** A fresh per-test directory under the gtest temp root. */
std::string
scratchDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "ujam-codegen-" + tag +
                      "-" + std::to_string(getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

// --- golden C sources -----------------------------------------------

TEST(CodegenGolden, Matmul)
{
    CodegenUnit unit = emitCProgram(suiteProgram("mmjik"));
    expectGolden("codegen_matmul.c.golden", unit.source);
}

TEST(CodegenGolden, Stencil)
{
    CodegenUnit unit = emitCProgram(suiteProgram("jacobi"));
    expectGolden("codegen_stencil.c.golden", unit.source);
}

TEST(CodegenGolden, ScalarReplaced)
{
    CodegenOptions options;
    options.variantLabel = "transformed";
    CodegenUnit unit =
        emitCProgram(transformedProgram("mmjik"), options);
    // The interesting content: unroll-and-jam plus scalar replacement
    // must actually have fired, or the golden pins the wrong thing.
    EXPECT_NE(unit.source,
              emitCProgram(suiteProgram("mmjik")).source);
    expectGolden("codegen_scalar_replaced.c.golden", unit.source);
}

TEST(CodegenGolden, Fringe)
{
    CodegenOptions options;
    options.variantLabel = "transformed";
    CodegenUnit unit =
        emitCProgram(transformedProgram("jacobi"), options);
    // The jammed stencil leaves a fringe nest behind the aligned main
    // loop; the symbolic bounds survive as comments.
    EXPECT_NE(unit.source.find("align("), std::string::npos);
    expectGolden("codegen_fringe.c.golden", unit.source);
}

// --- emitter behaviour ----------------------------------------------

TEST(CodegenEmitter, DeterministicAndLabelled)
{
    Program program = suiteProgram("jacobi");
    CodegenOptions options;
    options.variantLabel = "variant-tag";
    CodegenUnit first = emitCProgram(program, options);
    CodegenUnit second = emitCProgram(program, options);
    EXPECT_EQ(first.source, second.source);
    EXPECT_NE(first.source.find("Variant: variant-tag"),
              std::string::npos);
    EXPECT_NE(first.source.find("\nmain(int argc"),
              std::string::npos);

    options.emitMain = false;
    CodegenUnit library = emitCProgram(program, options);
    EXPECT_EQ(library.source.find("\nmain(int argc"),
              std::string::npos);
    // The fixed entry ABI is present either way.
    for (const char *entry :
         {"\nujam_init(", "\nujam_run(", "\nujam_array_checksum(",
          "\nujam_checksum("})
        EXPECT_NE(library.source.find(entry), std::string::npos)
            << entry;
}

TEST(CodegenEmitter, RenamesCollidingIdentifiers)
{
    // "main" collides with the harness, "ujamx" invades the runtime's
    // namespace; both must be emitted under fresh C names while the
    // DSL spellings survive in comments.
    const char *source = R"(
real main(8)
real ujamx(8)
! nest: clash
do i = 1, 8
  main(i) = main(i) + ujamx(i)
end do
)";
    CodegenUnit unit =
        emitCProgram(parseProgram(source, "<clash>"));
    EXPECT_NE(unit.source.find("main_2"), std::string::npos);
    EXPECT_NE(unit.source.find("x_ujamx"), std::string::npos);
    // The declared-order array name list keeps the DSL spellings.
    ASSERT_EQ(unit.arrayNames.size(), 2u);
    EXPECT_EQ(unit.arrayNames[0], "main");
    EXPECT_EQ(unit.arrayNames[1], "ujamx");
}

TEST(CodegenEmitter, ParamOverridesBindExtents)
{
    const char *source = R"(
param n = 16
real a(n)
! nest: fill
do i = 1, n
  a(i) = a(i) + 1.0
end do
)";
    Program program = parseProgram(source, "<params>");
    CodegenOptions options;
    options.paramOverrides["n"] = 4;
    CodegenUnit unit = emitCProgram(program, options);
    EXPECT_EQ(unit.params.at("n"), 4);
    // Extent 4 plus the 16 halo elements on the single dimension.
    EXPECT_NE(unit.source.find("[20]"), std::string::npos);
}

// --- checksum -------------------------------------------------------

TEST(CodegenChecksum, MatchesReferenceFnv1a)
{
    // Independent re-derivation of the byte-wise FNV-1a fold.
    double values[] = {0.0, 1.5, -2.25e10};
    std::uint64_t expected = kChecksumSeed;
    for (double v : values) {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        __builtin_memcpy(&bits, &v, sizeof bits);
        for (int b = 0; b < 8; ++b) {
            expected ^= (bits >> (8 * b)) & 0xffu;
            expected *= 1099511628211ULL;
        }
    }
    EXPECT_EQ(checksumDoubles(kChecksumSeed, values, 3), expected);
    EXPECT_EQ(checksumDoubles(kChecksumSeed, values, 0),
              kChecksumSeed);
    EXPECT_EQ(checksumHex(0), "0000000000000000");
    EXPECT_EQ(checksumHex(0xdeadbeef12345678ULL),
              "deadbeef12345678");
}

TEST(CodegenChecksum, TransformedInterpreterRunAgrees)
{
    // The pipeline is semantics-preserving under the interpreter, so
    // the checksum oracle must already agree before any compiler is
    // involved; the compiled roundtrip below then closes the loop.
    for (const char *name : {"jacobi", "mmjik", "dmxpy0"}) {
        Program original = suiteProgram(name);
        Program transformed = transformedProgram(name);

        Interpreter base(original);
        base.seedArrays(9717);
        base.run();
        Interpreter opt(transformed);
        opt.seedArrays(9717);
        opt.run();
        EXPECT_EQ(interpreterChecksum(base, original),
                  interpreterChecksum(opt, transformed))
            << name;
    }
}

// --- compiled differential roundtrip (ctest -L codegen) -------------

class CodegenRoundtrip
    : public testing::TestWithParam<SuiteLoop>
{
};

TEST_P(CodegenRoundtrip, CompiledVariantsMatchInterpreter)
{
    if (hostCCompiler().empty())
        GTEST_SKIP() << "no host C compiler on PATH";

    const SuiteLoop &loop = GetParam();
    Program original = loadSuiteProgram(loop);
    Program transformed = transformedProgram(loop.name);

    CodegenOptions options;
    CodegenUnit original_unit = emitCProgram(original, options);
    options.variantLabel = "transformed";
    CodegenUnit transformed_unit =
        emitCProgram(transformed, options);

    Interpreter interp(original);
    interp.seedArrays(options.seed);
    interp.run();
    std::uint64_t oracle = interpreterChecksum(interp, original);

    VariantRun original_run = compileAndRun(
        original_unit.source, loop.name + "-orig", "", options.seed);
    ASSERT_TRUE(original_run.ok) << original_run.error << "\n"
                                 << original_run.output;
    VariantRun transformed_run =
        compileAndRun(transformed_unit.source, loop.name + "-ujam",
                      "", options.seed);
    ASSERT_TRUE(transformed_run.ok) << transformed_run.error << "\n"
                                    << transformed_run.output;

    // The acceptance bar: both compiled variants agree with each
    // other and with the ir/interp oracle, bit-exactly.
    EXPECT_EQ(original_run.checksum, oracle) << loop.name;
    EXPECT_EQ(transformed_run.checksum, oracle) << loop.name;

    // Per-array agreement localizes a failure to one array.
    for (const std::string &array : original_unit.arrayNames) {
        std::optional<std::uint64_t> per_array =
            parseArrayChecksumOutput(original_run.output, array);
        ASSERT_TRUE(per_array.has_value()) << array;
        EXPECT_EQ(*per_array,
                  interpreterArrayChecksum(interp, array))
            << loop.name << "/" << array;
    }
}

std::string
roundtripName(const testing::TestParamInfo<SuiteLoop> &info)
{
    std::string name = info.param.name;
    for (char &c : name) {
        if (c == '.')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllLoops, CodegenRoundtrip,
                         testing::ValuesIn(testSuite()),
                         roundtripName);

// --- the service "codegen" op ---------------------------------------

const char *kServeSource =
    "param n = 8\\nreal a(n, n)\\n! nest: sweep\\ndo j = 1, n\\n"
    "  do i = 1, n\\n    a(i, j) = a(i, j) * 2.0\\n  end do\\n"
    "end do\\n";

std::string
codegenRequest(const std::string &id,
               const std::string &options_json = "")
{
    std::string line = "{\"op\": \"codegen\", \"id\": \"" + id +
                       "\", \"source\": \"" + kServeSource + "\"";
    if (!options_json.empty())
        line += ", \"options\": " + options_json;
    return line + "}";
}

TEST(ServiceCodegen, ReturnsBothVariants)
{
    UjamServer server({});
    std::string out = batch(
        server,
        codegenRequest("c1", "{\"seed\": 42, \"params\": {\"n\": 6}}") +
            "\n");

    JsonParseResult parsed =
        parseJson(out.substr(0, out.find('\n')));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue &root = *parsed.value;
    EXPECT_EQ(root.find("status")->stringValue, "ok");
    const JsonValue *result = root.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result->find("seed")->asInt(), 42);
    EXPECT_EQ(*result->find("params")->find("n")->asInt(), 6);
    for (const char *field : {"original_c", "transformed_c"}) {
        const JsonValue *variant = result->find(field);
        ASSERT_NE(variant, nullptr) << field;
        EXPECT_NE(variant->stringValue.find("ujam_checksum"),
                  std::string::npos)
            << field;
    }
    EXPECT_EQ(result->find("arrays")->elements.size(), 1u);
    EXPECT_EQ(result->find("entry")->find("run")->stringValue,
              "ujam_run");
}

TEST(ServiceCodegen, CommentsPrintEveryDigitOfAConstant)
{
    // The comment above each emitted statement is the IR printer's
    // rendering of it: constants keep every digit (integral ones read
    // N.0) instead of six significant digits.
    UjamServer server({});
    std::string out = batch(
        server, "{\"op\": \"codegen\", \"source\": \"param n = 8\\n"
                "real a(n, n)\\nreal b(n, n)\\ndo j = 1, n\\n"
                "  do i = 1, n\\n    a(i, j) = b(i, j) * 0.1234567 + 2.0"
                "\\n  end do\\nend do\\n\"}\n");
    JsonParseResult parsed = parseJson(out.substr(0, out.find('\n')));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *result = parsed.value->find("result");
    ASSERT_NE(result, nullptr) << out;
    for (const char *field : {"original_c", "transformed_c"}) {
        const std::string &source = result->find(field)->stringValue;
        EXPECT_NE(source.find(
                      "/* a(i, j) = ((b(i, j) * 0.1234567) + 2.0) */"),
                  std::string::npos)
            << field << ":\n" << source;
        EXPECT_EQ(source.find("0.123457"), std::string::npos) << field;
    }
}

TEST(ServiceCodegen, HitIsByteIdenticalToMiss)
{
    // One batch thread: the second line starts after the first has
    // stored its result, so it is a real hit on any core count.
    ServerConfig config;
    config.threads = 1;
    UjamServer server(std::move(config));
    std::string line = codegenRequest("same");
    std::string out = batch(server, line + "\n" + line + "\n");
    std::size_t split = out.find('\n');
    ASSERT_NE(split, std::string::npos);
    EXPECT_EQ(out.substr(0, split), out.substr(split + 1, split));
    EXPECT_EQ(server.metrics().cacheMemoryHits.get(), 1u);
    EXPECT_EQ(server.metrics().opCodegen.get(), 2u);
}

TEST(ServiceCodegen, EmissionOptionsAreSemanticInTheKey)
{
    Program program = parseProgram(
        "param n = 8\nreal a(n)\n! nest: k\ndo i = 1, n\n"
        "  a(i) = a(i) + 1.0\nend do\n",
        "<key>");
    PipelineConfig config;
    MachineModel machine = alpha();

    CodegenOptions base;
    std::string base_key =
        computeCacheKey("codegen", program, machine, config, base);

    CodegenOptions seeded = base;
    seeded.seed = 1;
    CodegenOptions no_main = base;
    no_main.emitMain = false;
    CodegenOptions bound = base;
    bound.paramOverrides["n"] = 5;
    // Presentation only; must NOT change the key.
    CodegenOptions labelled = base;
    labelled.variantLabel = "renamed";

    EXPECT_NE(computeCacheKey("codegen", program, machine, config,
                              seeded),
              base_key);
    EXPECT_NE(computeCacheKey("codegen", program, machine, config,
                              no_main),
              base_key);
    EXPECT_NE(computeCacheKey("codegen", program, machine, config,
                              bound),
              base_key);
    EXPECT_EQ(computeCacheKey("codegen", program, machine, config,
                              labelled),
              base_key);

    // The canonical text carries the schema version: bumping it is
    // what invalidates persisted entries across format changes.
    std::string text = canonicalRequestText("codegen", program,
                                            machine, config, base);
    EXPECT_EQ(text.rfind("ujam-serve-cache-v7\n", 0), 0u);
    EXPECT_NE(text.find("codegen.seed = "), std::string::npos);
    // The autotuner's knobs are part of the text too.
    EXPECT_NE(text.find("tune.budgetMs = "), std::string::npos);
}

// --- split request-error counters -----------------------------------

TEST(ServiceErrorKinds, CountersSplitByFailureShape)
{
    UjamServer server({});
    server.processLine("this is not json");
    server.processLine("{\"op\": \"explode\"}");
    server.processLine("{\"op\": \"codegen\", \"source\": \"x\", "
                       "\"machine\": \"cray\"}");

    JsonParseResult parsed = parseJson(server.metricsSnapshot());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *requests = parsed.value->find("requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(*requests->find("errors")->asInt(), 3);
    EXPECT_EQ(*requests->find("malformed")->asInt(), 1);
    EXPECT_EQ(*requests->find("bad_op")->asInt(), 1);
    EXPECT_EQ(*requests->find("bad_field")->asInt(), 1);
    EXPECT_EQ(*requests->find("by_op")->find("codegen")->asInt(), 0);
}

// --- disk-cache byte budget (ctest -L service) ------------------------

std::uint64_t
diskBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::uint64_t total = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            total += it->file_size(ec);
    }
    return total;
}

TEST(ResultCacheEviction, ByteBudgetEvictsOldestFirst)
{
    std::string dir = scratchDir("evict");
    std::string value(1024, 'v');
    // Budget for two entries (header included); the third insert
    // must evict the oldest.
    std::uint64_t entry = ResultCache::diskEntryBytes(value.size());
    ResultCache cache(8, dir, 2 * entry);

    auto key = [](char c) { return std::string(64, c); };
    cache.put(key('a'), value);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put(key('b'), value);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put(key('c'), value);

    EXPECT_GE(cache.diskEvictions(), 1u);
    EXPECT_LE(diskBytes(dir), 2 * entry);

    // A fresh instance sees only the disk tier: the oldest entry is
    // gone, the newest survives.
    ResultCache fresh(8, dir);
    EXPECT_FALSE(fresh.get(key('a')).has_value());
    EXPECT_TRUE(fresh.get(key('c')).has_value());

    std::filesystem::remove_all(dir);
}

TEST(ResultCacheEviction, DiskHitRefreshesRecency)
{
    std::string dir = scratchDir("evict-lru");
    std::string value(1024, 'v');
    std::uint64_t entry = ResultCache::diskEntryBytes(value.size());
    ResultCache cache(8, dir, 2 * entry);

    auto key = [](char c) { return std::string(64, c); };
    cache.put(key('a'), value);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put(key('b'), value);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Touch 'a' through a fresh instance (a disk hit), making 'b'
    // the least recently used entry.
    {
        ResultCache toucher(8, dir, 2 * entry);
        ASSERT_TRUE(toucher.get(key('a')).has_value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put(key('c'), value);

    ResultCache fresh(8, dir);
    EXPECT_TRUE(fresh.get(key('a')).has_value());
    EXPECT_FALSE(fresh.get(key('b')).has_value());
    EXPECT_TRUE(fresh.get(key('c')).has_value());

    std::filesystem::remove_all(dir);
}

TEST(ResultCacheEviction, UnboundedByDefault)
{
    std::string dir = scratchDir("evict-off");
    ResultCache cache(8, dir);
    EXPECT_EQ(cache.maxDiskBytes(), 0u);
    std::string value(1024, 'v');
    for (char c = 'a'; c <= 'j'; ++c)
        cache.put(std::string(64, c), value);
    EXPECT_EQ(cache.diskEvictions(), 0u);
    EXPECT_GE(diskBytes(dir), 10 * value.size());
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ujam
