/**
 * @file
 * The ujam-serve wire protocol.
 *
 * Newline-delimited JSON, one request object per line, one response
 * object per line, in order. The same frames flow over the Unix
 * domain socket and through `--batch` stdin/stdout, so tests and CI
 * exercise the identical parser and renderer without a socket.
 *
 * Request:
 *
 *   {"op": "optimize" | "lint" | "codegen" | "tune" | "metrics" |
 *          "ping" | "shutdown",
 *    "id": "any string, echoed back",          (optional)
 *    "source": "<DSL text>",              (optimize/lint/codegen)
 *    "scenario": "family:k=v,...:seed",   (alternative to "source":
 *                 the named generated scenario becomes the source;
 *                 sending both is an error)
 *    "machine": "alpha|parisc|wide|wide-prefetch",  (default alpha)
 *    "options": { ... pipeline knobs ... },    (optional)
 *    "deadline_ms": N,   // budget from receipt; 0 = already expired
 *    "no_cache": true}                         (optional)
 *
 * Options: the option table (requestOptions() below) lists every
 * name with its value type, its range or choices and the request
 * fields it sets. Pipeline knobs apply to every op; "codegen"
 * additionally honours seed, emit_main and params, and "tune" honours
 * seed and the tune_* knobs. The service's tune_measure default is
 * "model" -- deterministic simulator cycles -- where the CLI's is
 * "wall"; tune responses in "model" mode are pure functions of the
 * request and cache like any other, while a "wall" run that
 * self-skips (no host compiler) is answered but never cached. Unknown
 * option names are an error (they would otherwise silently change the
 * cache key semantics a client expects).
 *
 * Response:
 *
 *   {"id": ..., "op": ..., "status": "ok" | "error" | "timeout" |
 *    "degraded", "error": "...",                (status != ok)
 *    "result": { ... }}                         (status == ok)
 *
 * "degraded" is the cache-only rejection: the supervisor's circuit
 * breaker tripped, the request missed the result cache, and nothing
 * was computed. Cached answers still return "ok" byte-identically.
 *
 * Responses deliberately carry no timing or cache-tier fields: a
 * response is a pure function of the request, so a cache hit is
 * byte-identical to the miss that populated it. Timings and hit
 * rates live in the metrics document instead.
 */

#ifndef UJAM_SERVICE_PROTOCOL_HH
#define UJAM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codegen/c_emitter.hh"
#include "driver/driver.hh"
#include "model/machine.hh"
#include "tune/autotuner.hh"

namespace ujam
{

struct JsonValue;

/** Request operations. */
enum class ServiceOp
{
    Optimize,
    Lint,
    Codegen,
    Tune,
    Metrics,
    Ping,
    Shutdown
};

/** @return The op's wire spelling. */
const char *serviceOpName(ServiceOp op);

/** A decoded, validated request. */
struct ServiceRequest
{
    ServiceOp op = ServiceOp::Ping;
    std::string id;               //!< echoed verbatim ("" = absent)
    std::string source;           //!< DSL text (optimize/lint)
    /** Canonical scenario name when the source came from the
     * "scenario" field ("" when "source" was sent directly). Kept so
     * responses and logs can name the generated program. */
    std::string scenarioName;
    std::string machineName = "alpha";
    MachineModel machine;         //!< resolved preset
    PipelineConfig config;        //!< resolved pipeline knobs
    CodegenOptions codegen;       //!< emission knobs ("codegen" op)
    /** Autotuner knobs ("tune" op). The wire default is measure =
     * "model" -- deterministic and compiler-free -- so a service
     * answers tune requests reproducibly out of the box; its
     * pipeline member is overwritten with the resolved config. */
    TuneConfig tune;
    /** Deadline budget in ms from receipt; unset = no deadline. */
    std::optional<std::int64_t> deadlineMs;
    bool noCache = false;         //!< skip the result cache
};

/**
 * How a rejected frame failed, for the split error counters: a
 * malformed frame (not JSON, not an object, oversized, no op), an
 * unknown op on an otherwise well-formed frame, or a bad field or
 * option value on a known op.
 */
enum class RequestErrorKind
{
    None,
    Malformed,
    BadOp,
    BadField
};

/** parseRequest outcome: a request or an error message. */
struct RequestParse
{
    std::optional<ServiceRequest> request;
    std::string error; //!< non-empty iff request is empty
    RequestErrorKind kind = RequestErrorKind::None;

    bool ok() const { return request.has_value(); }
};

/**
 * Decode one request line.
 *
 * Never throws; malformed JSON, wrong types, unknown ops, unknown
 * option names and out-of-range values all come back as errors.
 *
 * @param line One NDJSON frame without the trailing newline.
 */
RequestParse parseRequest(const std::string &line);

/** How an option's value is spelled. */
enum class OptionKind
{
    Bool,   //!< true or false
    Int,    //!< an integer in [lo, hi]
    Number, //!< a positive number
    Choice, //!< one of a fixed list of strings
    Params  //!< parameter-name -> integer bindings
};

/** A checked option value, as a table row's setter receives it. */
struct OptionValue
{
    bool flag = false;        //!< Bool
    std::int64_t integer = 0; //!< Int, Params, or the Choice index
    double number = 0;        //!< Number
    std::string param;        //!< Params: the bound parameter's name
};

/**
 * One wire option: its name, value type, accepted values and the
 * request fields it sets. The table of these is the one definition of
 * every knob the service and the CLIs share.
 */
struct RequestOption
{
    const char *name;
    OptionKind kind;
    std::int64_t lo = 0; //!< Int and Params: smallest accepted value
    std::int64_t hi = 0; //!< Int and Params: largest accepted value
    std::vector<const char *> choices; //!< Choice: accepted spellings
    void (*set)(ServiceRequest &request, const OptionValue &value);
};

/** @return Every wire option, in documentation order. */
const std::vector<RequestOption> &requestOptions();

/**
 * Apply one option to a request: the one entry point for the wire's
 * JSON values (parseRequest) and for the CLIs' flag text. Text must
 * parse as a whole: "true" or "false", a decimal integer, a JSON
 * number, one of the choices, or one "name=value" parameter binding.
 *
 * @return "" once applied; otherwise the service's message for that
 *         option and value.
 */
std::string applyRequestOption(ServiceRequest &request,
                               const std::string &name,
                               const JsonValue &value);
std::string applyRequestOption(ServiceRequest &request,
                               const std::string &name,
                               const std::string &text);

/** @return A one-line error response frame. */
std::string errorResponse(const std::string &id, const std::string &op,
                          const std::string &status,
                          const std::string &message);

/**
 * @return A one-line success response frame wrapping a pre-rendered
 * result object.
 */
std::string okResponse(const std::string &id, const std::string &op,
                       const std::string &result_json);

} // namespace ujam

#endif // UJAM_SERVICE_PROTOCOL_HH
