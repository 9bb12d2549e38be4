/**
 * @file
 * Deterministic fault injection for the optimization pipeline.
 *
 * A fault spec names a point in the pipeline -- (stage, nest index)
 * -- and the kind of failure to force there. The driver consults the
 * active specs at every stage boundary and manufactures the requested
 * failure, so every containment/rollback path can be exercised by
 * tests instead of waiting for a real bug to find it.
 *
 * Grammar (also accepted in the UJAM_FAULT environment variable):
 *
 *     spec  ::= stage ':' nest ':' kind (',' spec)*
 *     stage ::= fuse | normalize | distribute | interchange
 *             | unroll | scalar-replace | prefetch
 *     nest  ::= non-negative integer | '*'        (every nest)
 *     kind  ::= throw | panic | validator | oracle
 *
 * e.g. UJAM_FAULT=unroll:1:throw or UJAM_FAULT='*:*:validator' --
 * except that stage '*' is not allowed; a spec targets one stage.
 *
 * Kinds:
 *  - throw:     raise FatalError at stage entry
 *  - panic:     raise PanicError at stage entry
 *  - validator: corrupt the stage's output IR structurally, so the
 *               post-stage validator (when enabled) must reject it
 *  - oracle:    corrupt the stage's output semantically but keep it
 *               structurally valid, so only the differential oracle
 *               (when enabled) can catch it
 *
 * This module only parses and matches specs; the driver owns the
 * actual corruption (it knows the IR). Matching is read-only and
 * therefore race-free under the pipeline's parallelFor.
 *
 * Process-level faults
 * --------------------
 * ujam-serve extends the same UJAM_FAULT grammar from nests to
 * processes: specs whose first token names a process-level kind are
 * routed to the service layer instead of the pipeline, so one
 * variable drives both halves of the safety-net story.
 *
 *     pspec ::= pkind (':' n (':' arg)?)?
 *     pkind ::= worker_crash | worker_hang | cache_corrupt
 *             | slow_response
 *     n     ::= positive request/store ordinal | '*'   (every)
 *
 * A bare pkind (no ordinal) fires on every request, like ':*'. Under
 * a supervisor, request ordinals count across worker restarts (the
 * count lives in shared memory), so 'worker_crash:3:0' kills worker
 * 0's third request exactly once per service lifetime instead of
 * re-firing in every incarnation.
 *
 * The arg's meaning depends on the kind:
 *
 *  - worker_crash:n[:w]   SIGKILL this process while serving its n-th
 *                         pipeline request (optimize/lint/codegen);
 *                         arg w restricts the spec to worker index w.
 *  - worker_hang:n[:ms]   sleep ms (default 3600000) inside the n-th
 *                         request without answering it.
 *  - slow_response:n[:ms] sleep ms (default 100) before answering the
 *                         n-th request.
 *  - cache_corrupt:n      flip one stored byte after the n-th disk
 *                         cache store, so the read path must detect
 *                         and quarantine the entry.
 *
 * parseMixedFaultSpecs splits one comma-separated list into its
 * pipeline and process halves; faultSpecsFromEnv keeps returning only
 * the pipeline half so the cache key never absorbs process faults
 * (they do not change what a request computes, only whether the
 * process survives computing it).
 */

#ifndef UJAM_SUPPORT_FAULT_INJECTION_HH
#define UJAM_SUPPORT_FAULT_INJECTION_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ujam
{

/** What failure a fault spec forces. */
enum class FaultKind
{
    Throw,     //!< FatalError at stage entry
    Panic,     //!< PanicError at stage entry
    Validator, //!< structurally-invalid stage output
    Oracle     //!< semantically-wrong but valid stage output
};

/** @return The spec spelling of a kind ("throw", ...). */
const char *faultKindName(FaultKind kind);

/** One injection point. */
struct FaultSpec
{
    std::string stage;            //!< pipeline stage name
    std::optional<std::size_t> nest; //!< nest index; nullopt = every nest
    FaultKind kind = FaultKind::Throw;

    /** @return The spec rendered back into grammar form. */
    std::string toString() const;
};

/** What a process-level fault spec forces (see the file comment). */
enum class ProcessFaultKind
{
    WorkerCrash,  //!< SIGKILL mid-request
    WorkerHang,   //!< sleep without answering
    CacheCorrupt, //!< flip a stored disk-cache byte
    SlowResponse  //!< sleep, then answer normally
};

/** @return The spec spelling of a kind ("worker_crash", ...). */
const char *processFaultKindName(ProcessFaultKind kind);

/** One process-level injection point. */
struct ProcessFaultSpec
{
    ProcessFaultKind kind = ProcessFaultKind::WorkerCrash;
    /** 1-based request/store ordinal; nullopt = every one. */
    std::optional<std::uint64_t> ordinal;
    /** Kind-dependent argument (worker index / sleep ms); see the
     * file comment for defaults. */
    std::optional<std::int64_t> arg;

    /** @return The spec rendered back into grammar form. */
    std::string toString() const;

    /** @return True when the spec fires for this 1-based ordinal. */
    bool
    matches(std::uint64_t n) const
    {
        return !ordinal || *ordinal == n;
    }
};

/** One UJAM_FAULT list split into its two halves. */
struct MixedFaultSpecs
{
    std::vector<FaultSpec> pipeline;
    std::vector<ProcessFaultSpec> process;
};

/**
 * Parse a comma-separated spec list of pipeline-level specs only.
 *
 * @throws FatalError on any grammar violation (unknown stage or
 * kind, malformed nest index) -- including a process-level spec,
 * which is not valid in a pipeline-only context.
 */
std::vector<FaultSpec> parseFaultSpecs(const std::string &text);

/**
 * Parse a comma-separated list that may mix pipeline- and
 * process-level specs; each spec is routed by its first token.
 *
 * @throws FatalError on any grammar violation in either half.
 */
MixedFaultSpecs parseMixedFaultSpecs(const std::string &text);

/**
 * Parse a comma-separated list of process-level specs only.
 *
 * @throws FatalError on grammar violations or pipeline-level specs.
 */
std::vector<ProcessFaultSpec>
parseProcessFaultSpecs(const std::string &text);

/**
 * @return The pipeline-level specs from the UJAM_FAULT environment
 * variable, or an empty list when it is unset or empty. Process-level
 * specs in the variable are ignored here (they must not perturb the
 * cache key). Fatal on a malformed value.
 */
std::vector<FaultSpec> faultSpecsFromEnv();

/**
 * @return The process-level specs from UJAM_FAULT, or an empty list.
 * Pipeline-level specs in the variable are ignored here. Fatal on a
 * malformed value.
 */
std::vector<ProcessFaultSpec> processFaultSpecsFromEnv();

/**
 * @return The kind requested for (stage, nest), if any. The first
 * matching spec wins.
 */
std::optional<FaultKind> requestedFault(const std::vector<FaultSpec> &specs,
                                        const std::string &stage,
                                        std::size_t nest);

} // namespace ujam

#endif // UJAM_SUPPORT_FAULT_INJECTION_HH
