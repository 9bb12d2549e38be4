#include "inputs.hh"

#include <algorithm>

#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/rng.hh"

namespace perfbench
{

using ujam::Rng;

namespace
{

// Keeps the request stream's draws apart from other uses of the seed.
constexpr std::uint64_t kColdSalt = 0xC01D;

/**
 * Largest extent drawn for the "n"/"m" parameters. Extents do not
 * change what the optimizer decides, but every optimize response is
 * checked by interpreting the source and the returned program, so the
 * draws stay small enough for that check to cost well under the
 * request itself. Every other parameter spans its full schema range.
 */
std::int64_t
extentCap(const std::string &family)
{
    if (family == "stencil3d")
        return 12;
    if (family == "matmul")
        return 16;
    return 48;
}

/** A generated program of `family`, parameters drawn from `rng`. */
std::string
drawProgram(Rng &rng, const ujam::IScenarioGenerator &generator)
{
    ujam::ScenarioSpec spec;
    spec.family = generator.family();
    for (const ujam::ScenarioParam &param : generator.params()) {
        std::int64_t hi = param.max;
        if (param.name == "n" || param.name == "m")
            hi = std::max(param.min,
                          std::min(hi, extentCap(spec.family)));
        spec.params[param.name] = rng.range(param.min, hi);
    }
    spec.seed = static_cast<std::uint64_t>(rng.range(0, 1ll << 40));
    return ujam::generateScenario(spec).source;
}

ServeRequest
makeRequest(const std::string &id, const std::string &op,
            std::string source, const char *machine,
            std::int64_t max_unroll)
{
    ServeRequest request;
    request.op = op;
    request.source = std::move(source);
    ujam::JsonWriter w;
    w.beginObject();
    w.field("op", op);
    w.field("id", id);
    w.field("source", request.source);
    w.field("machine", machine);
    w.key("options").beginObject();
    if (op == "optimize") {
        w.field("max_unroll", max_unroll);
        w.field("lint", "warn");
    }
    w.endObject();
    w.endObject();
    request.frame = w.str();
    return request;
}

/** A request class and how many of one schedule cycle it fills. */
struct RequestClass
{
    const char *op;
    std::int64_t maxUnroll;
    std::uint64_t count;
};

/**
 * A fixed cycle of request classes, interleaved evenly. The mix is
 * exact in every cycle rather than drawn, and each class walks the
 * eight families and both machines in turn, so a run's cost does not
 * swing with how many expensive requests a seed happens to draw; the
 * seed picks each program's parameters and coefficients.
 */
class Schedule
{
  public:
    explicit Schedule(std::vector<RequestClass> classes)
        : classes_(std::move(classes))
    {
        std::vector<std::pair<double, std::size_t>> keyed;
        for (std::size_t c = 0; c < classes_.size(); ++c)
            for (std::uint64_t j = 0; j < classes_[c].count; ++j)
                keyed.emplace_back(
                    (static_cast<double>(j) + 0.5) /
                        static_cast<double>(classes_[c].count),
                    c);
        std::stable_sort(keyed.begin(), keyed.end());
        std::vector<std::uint64_t> seen(classes_.size(), 0);
        for (const auto &[key, c] : keyed) {
            slots_.push_back(c);
            ranks_.push_back(seen[c]++);
        }
    }

    /** Request `index`: its class and family, and its machine. */
    struct Draw
    {
        const RequestClass *cls;
        const ujam::IScenarioGenerator *generator;
        const char *machine;
    };

    Draw
    draw(std::uint64_t seed, std::uint64_t index) const
    {
        std::uint64_t cycle = index / slots_.size();
        std::size_t slot = static_cast<std::size_t>(index % slots_.size());
        std::size_t c = slots_[slot];
        // Ordinal of this request within its class across cycles.
        std::uint64_t k = cycle * classes_[c].count + ranks_[slot];
        const auto &registry = ujam::scenarioRegistry();
        std::uint64_t rotate = Rng::deriveStream(seed, c);
        return {&classes_[c],
                registry[(k + rotate) % registry.size()],
                (k / registry.size()) % 2 ? "parisc" : "alpha"};
    }

  private:
    std::vector<RequestClass> classes_;
    std::vector<std::size_t> slots_;
    std::vector<std::uint64_t> ranks_;
};

/** serve_cold: 70% optimize (max_unroll 4/8/16/32 at 30/45/20/5), 20%
 * lint, 10% codegen, per 200 requests. */
const Schedule &
coldSchedule()
{
    static const Schedule schedule({{"optimize", 4, 42},
                                    {"optimize", 8, 63},
                                    {"optimize", 16, 28},
                                    {"optimize", 32, 7},
                                    {"lint", 0, 40},
                                    {"codegen", 0, 20}});
    return schedule;
}

} // namespace

ServeRequest
coldRequest(std::uint64_t seed, std::uint64_t index)
{
    Schedule::Draw draw = coldSchedule().draw(seed ^ kColdSalt, index);
    Rng rng(Rng::deriveStream(seed ^ kColdSalt, index));
    return makeRequest(ujam::concat("c", index), draw.cls->op,
                       drawProgram(rng, *draw.generator), draw.machine,
                       draw.cls->maxUnroll);
}

ujam::SweepManifest
sweepManifest(std::uint64_t seed)
{
    ujam::SweepManifest manifest = ujam::defaultSweepManifest();
    manifest.seeds = {2 * seed, 2 * seed + 1};
    return manifest;
}

std::vector<SweepJob>
sweepJobs(const ujam::SweepManifest &manifest)
{
    std::vector<SweepJob> jobs;
    for (const ujam::SweepFamily &entry : manifest.families) {
        const ujam::IScenarioGenerator *generator =
            ujam::findScenarioFamily(entry.family);
        if (!generator)
            ujam::fatal("unknown scenario family '", entry.family, "'");
        std::vector<std::size_t> index(entry.grid.size(), 0);
        while (true) {
            ujam::ScenarioSpec spec;
            spec.family = entry.family;
            for (const ujam::ScenarioParam &param : generator->params())
                spec.params[param.name] = param.def;
            for (std::size_t g = 0; g < entry.grid.size(); ++g)
                spec.params[entry.grid[g].first] =
                    entry.grid[g].second[index[g]];
            for (std::uint64_t seed : manifest.seeds) {
                spec.seed = seed;
                for (const std::string &machine : manifest.machines)
                    jobs.push_back({spec, machine});
            }
            // Odometer step, last grid entry fastest.
            bool done = entry.grid.empty();
            std::size_t g = entry.grid.size();
            while (!done) {
                if (g == 0) {
                    done = true;
                    break;
                }
                --g;
                if (++index[g] < entry.grid[g].second.size())
                    break;
                index[g] = 0;
            }
            if (done)
                break;
        }
    }
    return jobs;
}

ujam::SweepManifest
singleJobManifest(const ujam::SweepManifest &base, const SweepJob &job)
{
    ujam::SweepManifest one;
    ujam::SweepFamily family;
    family.family = job.spec.family;
    for (const auto &[name, value] : job.spec.params)
        family.grid.emplace_back(name, std::vector<std::int64_t>{value});
    one.families = {family};
    one.machines = {job.machine};
    one.pipelines = base.pipelines;
    one.seeds = {job.spec.seed};
    one.oracle = base.oracle;
    return one;
}

std::string
renderManifest(const ujam::SweepManifest &manifest)
{
    ujam::JsonWriter w;
    w.beginObject();
    w.key("seeds").beginArray();
    for (std::uint64_t seed : manifest.seeds)
        w.value(seed);
    w.endArray();
    w.field("oracle", manifest.oracle);
    w.key("machines").beginArray();
    for (const std::string &machine : manifest.machines)
        w.value(machine);
    w.endArray();
    w.key("families").beginArray();
    for (const ujam::SweepFamily &family : manifest.families) {
        w.beginObject();
        w.field("family", family.family);
        w.key("grid").beginObject();
        for (const auto &[param, values] : family.grid) {
            w.key(param).beginArray();
            for (std::int64_t value : values)
                w.value(value);
            w.endArray();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace perfbench
