#include "support/fault_injection.hh"

#include <cstdlib>

#include "support/diagnostics.hh"
#include "support/string_utils.hh"

namespace ujam
{

namespace
{

/** The stage names the pipeline exposes to the grammar. */
const char *const kStageNames[] = {
    "fuse",   "normalize",      "distribute", "interchange",
    "unroll", "scalar-replace", "prefetch",
};

bool
knownStage(const std::string &name)
{
    for (const char *stage : kStageNames) {
        if (name == stage)
            return true;
    }
    return false;
}

std::optional<ProcessFaultKind>
processKindFor(const std::string &name)
{
    if (name == "worker_crash")
        return ProcessFaultKind::WorkerCrash;
    if (name == "worker_hang")
        return ProcessFaultKind::WorkerHang;
    if (name == "cache_corrupt")
        return ProcessFaultKind::CacheCorrupt;
    if (name == "slow_response")
        return ProcessFaultKind::SlowResponse;
    return std::nullopt;
}

std::uint64_t
parseOrdinalNumber(const std::string &text, const std::string &spec)
{
    std::uint64_t value = 0;
    if (!parseUint64(text, value)) {
        fatal("fault spec '", spec,
              "': ordinal must be a positive integer or '*'");
    }
    if (value == 0)
        fatal("fault spec '", spec, "': ordinals are 1-based");
    return value;
}

ProcessFaultSpec
parseOneProcessSpec(ProcessFaultKind kind, const std::string &text)
{
    std::vector<std::string> parts = split(text, ':');
    if (parts.empty() || parts.size() > 3) {
        fatal("fault spec '", text,
              "': expected kind[:ordinal[:arg]]");
    }
    ProcessFaultSpec spec;
    spec.kind = kind;
    if (parts.size() >= 2) {
        std::string ordinal = trim(parts[1]);
        if (ordinal != "*")
            spec.ordinal = parseOrdinalNumber(ordinal, text);
    }
    if (parts.size() == 3) {
        std::string arg = trim(parts[2]);
        std::int64_t value = 0;
        if (!parseCount(arg, value)) {
            fatal("fault spec '", text,
                  "': arg must be a non-negative integer");
        }
        spec.arg = value;
    }
    return spec;
}

FaultKind
parseKind(const std::string &text)
{
    if (text == "throw")
        return FaultKind::Throw;
    if (text == "panic")
        return FaultKind::Panic;
    if (text == "validator")
        return FaultKind::Validator;
    if (text == "oracle")
        return FaultKind::Oracle;
    fatal("fault spec: unknown kind '", text,
          "' (expected throw|panic|validator|oracle)");
}

FaultSpec
parseOneSpec(const std::string &text)
{
    std::vector<std::string> parts = split(text, ':');
    if (!parts.empty() && processKindFor(trim(parts[0]))) {
        fatal("fault spec '", text,
              "': process-level specs are not valid here");
    }
    if (parts.size() != 3) {
        fatal("fault spec '", text,
              "': expected stage:nest:kind");
    }
    FaultSpec spec;
    spec.stage = trim(parts[0]);
    if (!knownStage(spec.stage))
        fatal("fault spec '", text, "': unknown stage '", spec.stage, "'");
    std::string nest = trim(parts[1]);
    if (nest != "*") {
        std::size_t index = 0;
        if (!parseCount(nest, index))
            fatal("fault spec '", text, "': nest must be an index or '*'");
        spec.nest = index;
    }
    spec.kind = parseKind(trim(parts[2]));
    return spec;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Throw:
        return "throw";
      case FaultKind::Panic:
        return "panic";
      case FaultKind::Validator:
        return "validator";
      case FaultKind::Oracle:
        return "oracle";
    }
    return "?";
}

std::string
FaultSpec::toString() const
{
    return concat(stage, ":", nest ? std::to_string(*nest) : "*", ":",
                  faultKindName(kind));
}

const char *
processFaultKindName(ProcessFaultKind kind)
{
    switch (kind) {
      case ProcessFaultKind::WorkerCrash:
        return "worker_crash";
      case ProcessFaultKind::WorkerHang:
        return "worker_hang";
      case ProcessFaultKind::CacheCorrupt:
        return "cache_corrupt";
      case ProcessFaultKind::SlowResponse:
        return "slow_response";
    }
    return "?";
}

std::string
ProcessFaultSpec::toString() const
{
    std::string text =
        concat(processFaultKindName(kind), ":",
               ordinal ? std::to_string(*ordinal) : "*");
    if (arg)
        text += concat(":", std::to_string(*arg));
    return text;
}

std::vector<FaultSpec>
parseFaultSpecs(const std::string &text)
{
    std::vector<FaultSpec> specs;
    for (const std::string &part : split(text, ',')) {
        std::string trimmed = trim(part);
        if (!trimmed.empty())
            specs.push_back(parseOneSpec(trimmed));
    }
    return specs;
}

MixedFaultSpecs
parseMixedFaultSpecs(const std::string &text)
{
    MixedFaultSpecs mixed;
    for (const std::string &part : split(text, ',')) {
        std::string trimmed = trim(part);
        if (trimmed.empty())
            continue;
        std::vector<std::string> parts = split(trimmed, ':');
        std::optional<ProcessFaultKind> kind =
            parts.empty() ? std::nullopt
                          : processKindFor(trim(parts[0]));
        if (kind) {
            mixed.process.push_back(
                parseOneProcessSpec(*kind, trimmed));
        } else {
            mixed.pipeline.push_back(parseOneSpec(trimmed));
        }
    }
    return mixed;
}

std::vector<ProcessFaultSpec>
parseProcessFaultSpecs(const std::string &text)
{
    MixedFaultSpecs mixed = parseMixedFaultSpecs(text);
    if (!mixed.pipeline.empty()) {
        fatal("fault spec '", mixed.pipeline.front().toString(),
              "': pipeline-level specs are not valid here");
    }
    return std::move(mixed.process);
}

std::vector<FaultSpec>
faultSpecsFromEnv()
{
    const char *value = std::getenv("UJAM_FAULT");
    if (!value || !*value)
        return {};
    return std::move(parseMixedFaultSpecs(value).pipeline);
}

std::vector<ProcessFaultSpec>
processFaultSpecsFromEnv()
{
    const char *value = std::getenv("UJAM_FAULT");
    if (!value || !*value)
        return {};
    return std::move(parseMixedFaultSpecs(value).process);
}

std::optional<FaultKind>
requestedFault(const std::vector<FaultSpec> &specs,
               const std::string &stage, std::size_t nest)
{
    for (const FaultSpec &spec : specs) {
        if (spec.stage == stage && (!spec.nest || *spec.nest == nest))
            return spec.kind;
    }
    return std::nullopt;
}

} // namespace ujam
