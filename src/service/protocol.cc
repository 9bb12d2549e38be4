#include "service/protocol.hh"

#include <algorithm>
#include <limits>

#include "scenarios/scenario.hh"
#include "support/diagnostics.hh"
#include "support/json.hh"
#include "support/string_utils.hh"

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

const std::vector<RequestOption> &
requestOptions()
{
    using K = OptionKind;
    using R = ServiceRequest;
    using V = OptionValue;
    static const std::vector<RequestOption> table = {
        {"max_unroll", K::Int, 1, 64, {}, [](R &r, const V &v) {
             r.config.optimizer.maxUnroll = v.integer;
             r.config.lintOptions.maxUnroll = v.integer;
         }},
        {"max_loops", K::Int, 1, 8, {}, [](R &r, const V &v) {
             r.config.optimizer.maxLoops = std::size_t(v.integer);
         }},
        {"use_cache_model", K::Bool, 0, 0, {}, [](R &r, const V &v) {
             r.config.optimizer.useCacheModel = v.flag;
         }},
        {"limit_registers", K::Bool, 0, 0, {}, [](R &r, const V &v) {
             r.config.optimizer.limitRegisters = v.flag;
         }},
        {"localized_trip", K::Number, 0, 0, {}, [](R &r, const V &v) {
             r.config.optimizer.locality.localizedTrip = v.number;
         }},
        {"fuse", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.fuse = v.flag; }},
        {"normalize", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.normalize = v.flag; }},
        {"distribute", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.distribute = v.flag; }},
        {"interchange", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.interchange = v.flag; }},
        {"scalar_replace", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.scalarReplace = v.flag; }},
        {"prefetch", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.prefetch = v.flag; }},
        {"prefetch_distance", K::Int, 1, 1024, {}, [](R &r, const V &v) {
             r.config.prefetchConfig.distanceIters = v.integer;
         }},
        {"validate", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.safety.validate = v.flag; }},
        {"oracle", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.config.safety.oracle = v.flag; }},
        {"lint", K::Choice, 0, 0, {"off", "warn", "strict"},
         [](R &r, const V &v) {
             constexpr LintMode modes[] = {LintMode::Off, LintMode::Warn,
                                           LintMode::Strict};
             r.config.lint = modes[v.integer];
         }},
        {"min_severity", K::Choice, 0, 0, {"note", "warn", "error"},
         [](R &r, const V &v) {
             constexpr LintSeverity levels[] = {
                 LintSeverity::Note, LintSeverity::Warn, LintSeverity::Error};
             r.config.lintOptions.minSeverity = levels[v.integer];
         }},
        {"seed", K::Int, 0, std::int64_t(1) << 62, {}, [](R &r, const V &v) {
             r.codegen.seed = r.tune.seed = std::uint64_t(v.integer);
         }},
        {"tune_measure", K::Choice, 0, 0, {"model", "wall"},
         [](R &r, const V &v) {
             r.tune.measure =
                 v.integer ? MeasureMode::Wall : MeasureMode::Model;
         }},
        {"tune_budget_ms", K::Int, 0, std::int64_t(1) << 40, {},
         [](R &r, const V &v) { r.tune.budgetMs = v.integer; }},
        {"tune_neighborhood", K::Int, 0, 8, {},
         [](R &r, const V &v) { r.tune.neighborhood = v.integer; }},
        {"tune_repeats", K::Int, 1, 64, {},
         [](R &r, const V &v) { r.tune.repeats = int(v.integer); }},
        {"tune_warmup", K::Int, 0, 64, {},
         [](R &r, const V &v) { r.tune.warmup = int(v.integer); }},
        {"emit_main", K::Bool, 0, 0, {},
         [](R &r, const V &v) { r.codegen.emitMain = v.flag; }},
        {"params", K::Params, std::numeric_limits<std::int64_t>::min(),
         std::numeric_limits<std::int64_t>::max(), {},
         [](R &r, const V &v) {
             r.codegen.paramOverrides[v.param] = v.integer;
         }},
    };
    return table;
}

namespace
{

/** The top-level numeric and boolean fields, checked like options. */
const RequestOption kDeadlineField{
    "deadline_ms", OptionKind::Int, 0, std::int64_t(1) << 40, {},
    [](ServiceRequest &r, const OptionValue &v) { r.deadlineMs = v.integer; }};
const RequestOption kNoCacheField{
    "no_cache", OptionKind::Bool, 0, 0, {},
    [](ServiceRequest &r, const OptionValue &v) { r.noCache = v.flag; }};

std::string
mustBe(const std::string &name, const std::string &what)
{
    return concat("option '", name, "' must be ", what);
}

std::string
rangeError(const std::string &name, const RequestOption &option)
{
    return mustBe(name, concat("an integer in [", option.lo, ", ",
                               option.hi, "]"));
}

/** @return The integer a JSON value or a whole text spells, if any. */
std::optional<std::int64_t>
readInteger(const JsonValue *json, const std::string &text)
{
    std::int64_t value = 0;
    if (json)
        return json->asInt();
    if (parseInt64(text, value))
        return value;
    return std::nullopt;
}

/**
 * Check a value against its table row and store it; json is null for
 * CLI text. @return "" or the rejection message.
 */
std::string
applyValue(const RequestOption &option, const JsonValue *json,
           const std::string &text, ServiceRequest &request)
{
    OptionValue value;
    switch (option.kind) {
      case OptionKind::Bool:
        if (json ? !json->isBool() : text != "true" && text != "false")
            return mustBe(option.name, "a boolean");
        value.flag = json ? json->boolValue : text == "true";
        break;
      case OptionKind::Int: {
        std::optional<std::int64_t> integer = readInteger(json, text);
        if (!integer || *integer < option.lo || *integer > option.hi)
            return rangeError(option.name, option);
        value.integer = *integer;
        break;
      }
      case OptionKind::Number: {
        JsonParseResult parsed;
        if (!json && (parsed = parseJson(text)).ok())
            json = &*parsed.value;
        if (!json || !json->isNumber() || json->numberValue <= 0)
            return mustBe(option.name, "a positive number");
        value.number = json->numberValue;
        break;
      }
      case OptionKind::Choice: {
        const std::string *spelled =
            !json ? &text : json->isString() ? &json->stringValue : nullptr;
        auto chosen = std::find_if(
            option.choices.begin(), option.choices.end(),
            [&](const char *choice) { return spelled && *spelled == choice; });
        if (chosen == option.choices.end()) {
            std::string list;
            for (std::size_t i = 0; i < option.choices.size(); ++i) {
                list += concat(i == 0 ? ""
                               : i + 1 < option.choices.size() ? ", "
                                                               : " or ",
                               "\"", option.choices[i], "\"");
            }
            return mustBe(option.name, list);
        }
        value.integer = chosen - option.choices.begin();
        break;
      }
      case OptionKind::Params: {
        // The wire sends an object of bindings, a CLI one name=value.
        std::size_t eq = text.find('=');
        if (json && !json->isObject())
            return mustBe(option.name,
                          "an object of integer parameter overrides");
        if (!json && (eq == std::string::npos || eq == 0))
            return mustBe(option.name, "name=value");
        std::vector<std::pair<std::string, std::optional<std::int64_t>>>
            bindings;
        if (json) {
            for (const auto &[param, bound] : json->members)
                bindings.emplace_back(param, bound.asInt());
        } else {
            bindings.emplace_back(text.substr(0, eq),
                                  readInteger(nullptr, text.substr(eq + 1)));
        }
        for (const auto &[param, bound] : bindings) {
            if (!bound)
                return rangeError(concat(option.name, ".", param), option);
            option.set(request, {false, *bound, 0, param});
        }
        return "";
      }
    }
    option.set(request, value);
    return "";
}

std::string
applyNamed(ServiceRequest &request, const std::string &name,
           const JsonValue *json, const std::string &text)
{
    for (const RequestOption &option : requestOptions()) {
        if (name == option.name)
            return applyValue(option, json, text, request);
    }
    return "unknown option '" + name + "'";
}

} // namespace

std::string
applyRequestOption(ServiceRequest &request, const std::string &name,
                   const JsonValue &value)
{
    return applyNamed(request, name, &value, "");
}

std::string
applyRequestOption(ServiceRequest &request, const std::string &name,
                   const std::string &text)
{
    return applyNamed(request, name, nullptr, text);
}

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

    std::string error; // the first problem wins
    auto fail = [&error](const std::string &message) {
        if (error.empty())
            error = message;
    };
    std::string scenario_name;
    for (const auto &[name, value] : root.members) {
        std::string *text = name == "id"         ? &request.id
                            : name == "source"   ? &request.source
                            : name == "scenario" ? &scenario_name
                            : name == "machine"  ? &request.machineName
                                                 : nullptr;
        if (name == "op") {
            continue;
        } else if (text) {
            if (value.isString())
                *text = value.stringValue;
            else
                fail("field '" + name + "' must be a string");
        } else if (name == "options") {
            if (!value.isObject())
                fail("field 'options' must be an object");
            for (const auto &[opt_name, opt_value] : value.members)
                fail(applyRequestOption(request, opt_name, opt_value));
        } else if (name == "deadline_ms") {
            fail(applyValue(kDeadlineField, &value, "", request));
        } else if (name == "no_cache") {
            fail(applyValue(kNoCacheField, &value, "", request));
        } else {
            fail("unknown field '" + name + "'");
        }
    }
    if (!error.empty())
        return {std::nullopt, error, RequestErrorKind::BadField};

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
