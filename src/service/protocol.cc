#include "service/protocol.hh"

#include <limits>

#include "scenarios/scenario.hh"
#include "support/json.hh"

namespace ujam
{

const char *
serviceOpName(ServiceOp op)
{
    switch (op) {
      case ServiceOp::Optimize:
        return "optimize";
      case ServiceOp::Lint:
        return "lint";
      case ServiceOp::Codegen:
        return "codegen";
      case ServiceOp::Tune:
        return "tune";
      case ServiceOp::Metrics:
        return "metrics";
      case ServiceOp::Ping:
        return "ping";
      case ServiceOp::Shutdown:
        return "shutdown";
    }
    return "?";
}

namespace
{

/** Accumulates the first field error while options are applied. */
struct FieldErrors
{
    std::string message;

    void
    fail(const std::string &what)
    {
        if (message.empty())
            message = what;
    }

    bool ok() const { return message.empty(); }
};

bool
readBool(const JsonValue &value, const std::string &name, bool &out,
         FieldErrors &errors)
{
    if (!value.isBool()) {
        errors.fail("option '" + name + "' must be a boolean");
        return false;
    }
    out = value.boolValue;
    return true;
}

bool
readInt(const JsonValue &value, const std::string &name,
        std::int64_t lo, std::int64_t hi, std::int64_t &out,
        FieldErrors &errors)
{
    std::optional<std::int64_t> parsed = value.asInt();
    if (!parsed || *parsed < lo || *parsed > hi) {
        errors.fail("option '" + name + "' must be an integer in [" +
                    std::to_string(lo) + ", " + std::to_string(hi) +
                    "]");
        return false;
    }
    out = *parsed;
    return true;
}

void
applyOption(const std::string &name, const JsonValue &value,
            ServiceRequest &request, FieldErrors &errors)
{
    PipelineConfig &config = request.config;
    std::int64_t integer = 0;
    bool flag = false;

    if (name == "max_unroll") {
        if (readInt(value, name, 1, 64, integer, errors)) {
            config.optimizer.maxUnroll = integer;
            config.lintOptions.maxUnroll = integer;
        }
    } else if (name == "max_loops") {
        if (readInt(value, name, 1, 8, integer, errors))
            config.optimizer.maxLoops =
                static_cast<std::size_t>(integer);
    } else if (name == "use_cache_model") {
        if (readBool(value, name, flag, errors))
            config.optimizer.useCacheModel = flag;
    } else if (name == "limit_registers") {
        if (readBool(value, name, flag, errors))
            config.optimizer.limitRegisters = flag;
    } else if (name == "localized_trip") {
        if (!value.isNumber() || value.numberValue <= 0) {
            errors.fail("option 'localized_trip' must be a positive "
                        "number");
        } else {
            config.optimizer.locality.localizedTrip =
                value.numberValue;
        }
    } else if (name == "fuse") {
        if (readBool(value, name, flag, errors))
            config.fuse = flag;
    } else if (name == "normalize") {
        if (readBool(value, name, flag, errors))
            config.normalize = flag;
    } else if (name == "distribute") {
        if (readBool(value, name, flag, errors))
            config.distribute = flag;
    } else if (name == "interchange") {
        if (readBool(value, name, flag, errors))
            config.interchange = flag;
    } else if (name == "scalar_replace") {
        if (readBool(value, name, flag, errors))
            config.scalarReplace = flag;
    } else if (name == "prefetch") {
        if (readBool(value, name, flag, errors))
            config.prefetch = flag;
    } else if (name == "prefetch_distance") {
        if (readInt(value, name, 1, 1024, integer, errors))
            config.prefetchConfig.distanceIters = integer;
    } else if (name == "validate") {
        if (readBool(value, name, flag, errors))
            config.safety.validate = flag;
    } else if (name == "oracle") {
        if (readBool(value, name, flag, errors))
            config.safety.oracle = flag;
    } else if (name == "lint") {
        if (!value.isString()) {
            errors.fail("option 'lint' must be \"off\", \"warn\" or "
                        "\"strict\"");
        } else if (value.stringValue == "off") {
            config.lint = LintMode::Off;
        } else if (value.stringValue == "warn") {
            config.lint = LintMode::Warn;
        } else if (value.stringValue == "strict") {
            config.lint = LintMode::Strict;
        } else {
            errors.fail("option 'lint' must be \"off\", \"warn\" or "
                        "\"strict\"");
        }
    } else if (name == "min_severity") {
        if (!value.isString()) {
            errors.fail("option 'min_severity' must be \"note\", "
                        "\"warn\" or \"error\"");
        } else if (value.stringValue == "note") {
            config.lintOptions.minSeverity = LintSeverity::Note;
        } else if (value.stringValue == "warn") {
            config.lintOptions.minSeverity = LintSeverity::Warn;
        } else if (value.stringValue == "error") {
            config.lintOptions.minSeverity = LintSeverity::Error;
        } else {
            errors.fail("option 'min_severity' must be \"note\", "
                        "\"warn\" or \"error\"");
        }
    } else if (name == "threads") {
        // Worker width inside one request; never part of the cache
        // key (results are bit-identical at every width).
        if (readInt(value, name, 0, 1024, integer, errors))
            config.threads = static_cast<std::size_t>(integer);
    } else if (name == "seed") {
        if (readInt(value, name, 0, std::int64_t(1) << 62, integer,
                    errors)) {
            request.codegen.seed =
                static_cast<std::uint64_t>(integer);
            request.tune.seed = static_cast<std::uint64_t>(integer);
        }
    } else if (name == "tune_measure") {
        if (!value.isString()) {
            errors.fail("option 'tune_measure' must be \"model\" or "
                        "\"wall\"");
        } else if (value.stringValue == "model") {
            request.tune.measure = MeasureMode::Model;
        } else if (value.stringValue == "wall") {
            request.tune.measure = MeasureMode::Wall;
        } else {
            errors.fail("option 'tune_measure' must be \"model\" or "
                        "\"wall\"");
        }
    } else if (name == "tune_budget_ms") {
        if (readInt(value, name, 0, std::int64_t(1) << 40, integer,
                    errors))
            request.tune.budgetMs = integer;
    } else if (name == "tune_neighborhood") {
        if (readInt(value, name, 0, 8, integer, errors))
            request.tune.neighborhood = integer;
    } else if (name == "tune_repeats") {
        if (readInt(value, name, 1, 64, integer, errors))
            request.tune.repeats = static_cast<int>(integer);
    } else if (name == "tune_warmup") {
        if (readInt(value, name, 0, 64, integer, errors))
            request.tune.warmup = static_cast<int>(integer);
    } else if (name == "emit_main") {
        if (readBool(value, name, flag, errors))
            request.codegen.emitMain = flag;
    } else if (name == "params") {
        if (!value.isObject()) {
            errors.fail("option 'params' must be an object of "
                        "integer parameter overrides");
        } else {
            for (const auto &[param_name, param_value] :
                 value.members) {
                std::int64_t bound = 0;
                if (readInt(param_value, "params." + param_name,
                            std::numeric_limits<std::int64_t>::min(),
                            std::numeric_limits<std::int64_t>::max(),
                            bound, errors))
                    request.codegen.paramOverrides[param_name] = bound;
            }
        }
    } else {
        errors.fail("unknown option '" + name + "'");
    }
}

} // namespace

RequestParse
parseRequest(const std::string &line)
{
    constexpr std::size_t kMaxLine = 8u << 20;
    if (line.size() > kMaxLine) {
        return {std::nullopt, "request larger than 8 MiB",
                RequestErrorKind::Malformed};
    }

    JsonParseResult parsed = parseJson(line);
    if (!parsed.ok()) {
        return {std::nullopt, parsed.error,
                RequestErrorKind::Malformed};
    }
    const JsonValue &root = *parsed.value;
    if (!root.isObject()) {
        return {std::nullopt, "request must be a JSON object",
                RequestErrorKind::Malformed};
    }

    ServiceRequest request;
    // Requests come from independent clients: run each one's nest
    // fan-out serially by default and let the server parallelize
    // across requests instead.
    request.config.threads = 1;
    // Service default: deterministic, compiler-free measurement.
    request.tune.measure = MeasureMode::Model;

    const JsonValue *op = root.find("op");
    if (!op || !op->isString()) {
        return {std::nullopt, "missing string field 'op'",
                RequestErrorKind::Malformed};
    }
    if (op->stringValue == "optimize") {
        request.op = ServiceOp::Optimize;
    } else if (op->stringValue == "lint") {
        request.op = ServiceOp::Lint;
    } else if (op->stringValue == "codegen") {
        request.op = ServiceOp::Codegen;
    } else if (op->stringValue == "tune") {
        request.op = ServiceOp::Tune;
    } else if (op->stringValue == "metrics") {
        request.op = ServiceOp::Metrics;
    } else if (op->stringValue == "ping") {
        request.op = ServiceOp::Ping;
    } else if (op->stringValue == "shutdown") {
        request.op = ServiceOp::Shutdown;
    } else {
        return {std::nullopt, "unknown op '" + op->stringValue + "'",
                RequestErrorKind::BadOp};
    }

    FieldErrors errors;
    std::string scenario_name;
    for (const auto &[name, value] : root.members) {
        if (name == "op")
            continue;
        if (name == "id") {
            if (!value.isString()) {
                errors.fail("field 'id' must be a string");
                continue;
            }
            request.id = value.stringValue;
        } else if (name == "source") {
            if (!value.isString()) {
                errors.fail("field 'source' must be a string");
                continue;
            }
            request.source = value.stringValue;
        } else if (name == "scenario") {
            if (!value.isString()) {
                errors.fail("field 'scenario' must be a string");
                continue;
            }
            scenario_name = value.stringValue;
        } else if (name == "machine") {
            if (!value.isString()) {
                errors.fail("field 'machine' must be a string");
                continue;
            }
            request.machineName = value.stringValue;
        } else if (name == "options") {
            if (!value.isObject()) {
                errors.fail("field 'options' must be an object");
                continue;
            }
            for (const auto &[opt_name, opt_value] : value.members)
                applyOption(opt_name, opt_value, request, errors);
        } else if (name == "deadline_ms") {
            std::int64_t ms = 0;
            if (readInt(value, "deadline_ms", 0,
                        std::int64_t(1) << 40, ms, errors))
                request.deadlineMs = ms;
        } else if (name == "no_cache") {
            bool flag = false;
            if (readBool(value, "no_cache", flag, errors))
                request.noCache = flag;
        } else {
            errors.fail("unknown field '" + name + "'");
        }
    }
    if (!errors.ok()) {
        return {std::nullopt, errors.message,
                RequestErrorKind::BadField};
    }

    std::optional<MachineModel> machine =
        machinePreset(request.machineName);
    if (!machine) {
        return {std::nullopt,
                "unknown machine '" + request.machineName + "'",
                RequestErrorKind::BadField};
    }
    request.machine = *machine;

    if (!scenario_name.empty()) {
        if (!request.source.empty()) {
            return {std::nullopt,
                    "fields 'source' and 'scenario' are mutually "
                    "exclusive",
                    RequestErrorKind::BadField};
        }
        std::string spec_error;
        std::optional<ScenarioSpec> spec =
            parseScenarioSpec(scenario_name, &spec_error);
        if (!spec) {
            return {std::nullopt, "bad scenario: " + spec_error,
                    RequestErrorKind::BadField};
        }
        request.scenarioName = spec->toString();
        request.source = generateScenario(*spec).source;
    }

    bool needs_source = request.op == ServiceOp::Optimize ||
                        request.op == ServiceOp::Lint ||
                        request.op == ServiceOp::Codegen ||
                        request.op == ServiceOp::Tune;
    if (needs_source && request.source.empty()) {
        return {std::nullopt,
                "missing field 'source' (or 'scenario')",
                RequestErrorKind::BadField};
    }

    return {std::move(request), "", RequestErrorKind::None};
}

namespace
{

void
envelopeHead(JsonWriter &json, const std::string &id,
             const std::string &op)
{
    json.beginObject();
    if (!id.empty())
        json.field("id", id);
    json.field("op", op);
}

} // namespace

std::string
errorResponse(const std::string &id, const std::string &op,
              const std::string &status, const std::string &message)
{
    JsonWriter json;
    envelopeHead(json, id, op);
    json.field("status", status);
    json.field("error", message);
    json.endObject();
    return json.str();
}

std::string
okResponse(const std::string &id, const std::string &op,
           const std::string &result_json)
{
    JsonWriter json;
    envelopeHead(json, id, op);
    json.field("status", "ok");
    json.key("result").rawValue(result_json);
    json.endObject();
    return json.str();
}

} // namespace ujam
