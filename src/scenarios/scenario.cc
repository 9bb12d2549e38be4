#include "scenarios/scenario.hh"

#include <algorithm>
#include <sstream>

#include "deps/analyzer.hh"
#include "reuse/ugs.hh"
#include "scenarios/families.hh"
#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace ujam
{

namespace scenarios_detail
{

std::string
coefLit(Rng &rng)
{
    // Hundredths in [10, 299]: never zero, rarely 1.00, and the
    // two-decimal rendering is exact (no platform float formatting).
    std::int64_t hundredths = rng.range(10, 299);
    return concat(hundredths / 100, ".", (hundredths % 100) / 10,
                  hundredths % 10);
}

std::string
offsetTerm(const std::string &iv, std::int64_t offset)
{
    if (offset == 0)
        return iv;
    if (offset > 0)
        return concat(iv, "+", offset);
    return concat(iv, "-", -offset);
}

std::string
scaledTerm(std::int64_t scale, const std::string &iv)
{
    if (scale == 0)
        return "";
    if (scale == 1)
        return iv;
    return concat(scale, "*", iv);
}

std::string
affineSum(const std::vector<std::string> &terms, std::int64_t constant)
{
    std::string out;
    for (const std::string &term : terms) {
        if (term.empty())
            continue;
        if (!out.empty())
            out += " + ";
        out += term;
    }
    if (out.empty())
        return concat(constant);
    if (constant > 0)
        out += concat(" + ", constant);
    else if (constant < 0)
        out += concat(" - ", -constant);
    return out;
}

} // namespace scenarios_detail

std::int64_t
ScenarioSpec::at(const std::string &name) const
{
    auto it = params.find(name);
    if (it == params.end())
        panic("scenario '", family, "': unbound parameter '", name,
              "'");
    return it->second;
}

std::string
ScenarioSpec::toString() const
{
    const IScenarioGenerator *generator = findScenarioFamily(family);
    std::string out = family + ":";
    bool first = true;
    if (generator) {
        // Schema order: stable and readable.
        for (const ScenarioParam &param : generator->params()) {
            auto it = params.find(param.name);
            if (it == params.end())
                continue;
            if (!first)
                out += ",";
            first = false;
            out += concat(param.name, "=", it->second);
        }
    } else {
        for (const auto &[name, value] : params) {
            if (!first)
                out += ",";
            first = false;
            out += concat(name, "=", value);
        }
    }
    out += concat(":", seed);
    return out;
}

const std::vector<const IScenarioGenerator *> &
scenarioRegistry()
{
    static const std::vector<const IScenarioGenerator *> registry = [] {
        std::vector<const IScenarioGenerator *> families;
        scenarios_detail::appendStencilFamilies(families);
        scenarios_detail::appendLinalgFamilies(families);
        scenarios_detail::appendStridedFamilies(families);
        scenarios_detail::appendIrregularFamilies(families);
        return families;
    }();
    return registry;
}

const IScenarioGenerator *
findScenarioFamily(const std::string &name)
{
    for (const IScenarioGenerator *generator : scenarioRegistry())
        if (name == generator->family())
            return generator;
    return nullptr;
}

bool
looksLikeScenarioName(const std::string &name)
{
    return name.find(':') != std::string::npos;
}

namespace
{

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
parseSpecInto(const std::string &name, ScenarioSpec &spec,
              std::string *error)
{
    std::vector<std::string> segments = split(name, ':');
    if (segments.empty() || segments.size() > 3)
        return fail(error, "scenario name must be "
                           "family[:key=value,...][:seed]");

    const IScenarioGenerator *generator =
        findScenarioFamily(segments[0]);
    if (!generator)
        return fail(error, "unknown scenario family '" + segments[0] +
                               "' (see --list)");
    spec.family = segments[0];

    spec.params.clear();
    for (const ScenarioParam &param : generator->params())
        spec.params[param.name] = param.def;

    if (segments.size() >= 2 && !segments[1].empty()) {
        for (const std::string &binding : split(segments[1], ',')) {
            std::size_t eq = binding.find('=');
            if (eq == std::string::npos || eq == 0)
                return fail(error, "bad parameter binding '" +
                                       binding + "' (want key=value)");
            std::string key = binding.substr(0, eq);
            std::int64_t value = 0;
            if (!parseInt64(binding.substr(eq + 1), value))
                return fail(error, "bad integer in binding '" +
                                       binding + "'");
            const ScenarioParam *schema = nullptr;
            for (const ScenarioParam &param : generator->params())
                if (param.name == key)
                    schema = &param;
            if (!schema)
                return fail(error, "family '" + spec.family +
                                       "' has no parameter '" + key +
                                       "'");
            if (value < schema->min || value > schema->max)
                return fail(
                    error,
                    concat("parameter '", key, "' = ", value,
                           " out of range [", schema->min, ", ",
                           schema->max, "]"));
            spec.params[key] = value;
        }
    }

    spec.seed = 0;
    if (segments.size() == 3 && !segments[2].empty()) {
        if (!parseUint64(segments[2], spec.seed))
            return fail(error, "bad scenario seed '" + segments[2] +
                                   "'");
    }
    return true;
}

} // namespace

std::optional<ScenarioSpec>
parseScenarioSpec(const std::string &name, std::string *error)
{
    ScenarioSpec spec;
    if (!parseSpecInto(name, spec, error))
        return std::nullopt;
    return spec;
}

GeneratedScenario
generateScenario(const ScenarioSpec &spec)
{
    const IScenarioGenerator *generator =
        findScenarioFamily(spec.family);
    if (!generator)
        fatal("unknown scenario family '", spec.family, "'");
    GeneratedScenario scenario = generator->generate(spec);
    scenario.name = spec.toString();
    return scenario;
}

bool
verifyScenarioTruth(const Program &program,
                    const ScenarioGroundTruth &truth, std::string *why)
{
    auto mismatch = [why](std::string message) {
        if (why)
            *why = std::move(message);
        return false;
    };

    if (program.nests().size() != 1)
        return mismatch(concat("expected 1 nest, got ",
                               program.nests().size()));
    const LoopNest &nest = program.nests().front();
    if (nest.depth() != truth.depth)
        return mismatch(concat("nest depth ", nest.depth(),
                               " != declared ", truth.depth));
    if (truth.legalUnroll.size() != truth.depth)
        return mismatch("declared legalUnroll has wrong arity");

    DependenceGraph graph = analyzeDependences(nest);
    bool carried = false;
    for (const Dependence &edge : graph.edges())
        if (edge.kind != DepKind::Input && edge.loopCarried())
            carried = true;
    if (carried != truth.carriedNonInput)
        return mismatch(concat(
            "carried non-input dependence: analysis says ", carried,
            ", generator declared ", truth.carriedNonInput));

    IntVector bounds = safeUnrollBounds(nest, graph, 8);
    for (std::size_t level = 0; level < nest.depth(); ++level) {
        bool legal = bounds[level] > 0;
        if (legal != static_cast<bool>(truth.legalUnroll[level]))
            return mismatch(concat("loop ", level, " unroll bound ",
                                   bounds[level],
                                   " contradicts declared legality ",
                                   truth.legalUnroll[level] ? 1 : 0));
    }

    std::vector<UniformlyGeneratedSet> sets =
        partitionUGS(nest.accesses());
    Subspace innermost =
        Subspace::coordinate(nest.depth(), {nest.depth() - 1});
    for (const auto &[array, expected] : truth.selfReuse) {
        bool found = false;
        for (const UniformlyGeneratedSet &ugs : sets) {
            if (ugs.array != array)
                continue;
            found = true;
            SelfReuse got = classifySelfReuse(ugs, innermost);
            if (got != expected)
                return mismatch(concat(
                    "array '", array, "' self-reuse is ",
                    selfReuseName(got), ", generator declared ",
                    selfReuseName(expected)));
        }
        if (!found)
            return mismatch(concat("declared array '", array,
                                   "' never accessed"));
    }
    return true;
}

std::string
renderScenarioCatalog()
{
    std::ostringstream out;
    out << "scenario families (name them family:key=value,...:seed):\n";
    for (const IScenarioGenerator *generator : scenarioRegistry()) {
        out << "  " << generator->family() << " -- "
            << generator->summary() << "\n";
        for (const ScenarioParam &param : generator->params()) {
            out << "      " << param.name << " = " << param.def
                << "  [" << param.min << ", " << param.max << "]  "
                << param.doc << "\n";
        }
    }
    return out.str();
}

} // namespace ujam
