/**
 * @file
 * The C code-generation backend: lower a validated program to one
 * self-contained C99 translation unit.
 *
 * The emitter accepts any program the strict validator accepts --
 * before or after transformation, including scalar-replaced bodies,
 * fringe nests, aligned bounds and prefetch statements -- and
 * produces compilable C that replays the reference interpreter's
 * semantics exactly:
 *
 *  - arrays are file-scope doubles in the interpreter's column-major,
 *    halo-padded layout (arrayLayout in ir/validate, with
 *    ArrayLayout::haloElems guard elements on each side of every
 *    dimension), so flat indices in the generated code equal
 *    interpreter flat indices;
 *  - ujam_init() fills every array with the interpreter's
 *    deterministic SplitMix64-derived values for a given seed;
 *  - loops run with preheader/postheader placement and zero-trip
 *    behaviour identical to Interpreter::execLoops;
 *  - a trailing epilogue computes the shared FNV-1a result checksum
 *    (see checksum.hh) per array and combined, so one integer
 *    comparison against interpreterChecksum() proves bit-exact
 *    agreement.
 *
 * Symbolic parameters are bound at emission time (defaults plus
 * overrides); the original symbolic forms survive as comments next
 * to each loop. Every generated TU exports a fixed entry-point ABI:
 *
 *     void     ujam_init(uint64_t seed);      -- deterministic fill
 *     void     ujam_run(void);                -- execute all nests
 *     uint64_t ujam_array_checksum(int a);    -- per declared array
 *     uint64_t ujam_checksum(void);           -- combined result
 *
 * plus, unless suppressed, a main() that seeds, runs, and prints
 * "ujam: array <name> checksum <hex>" lines and a final
 * "ujam: checksum <hex>" line for the differential harness to parse.
 */

#ifndef UJAM_CODEGEN_C_EMITTER_HH
#define UJAM_CODEGEN_C_EMITTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop_nest.hh"

namespace ujam
{

/** Switches for one emission. */
struct CodegenOptions
{
    /** Default seed baked into main() (argv[1] overrides at run time). */
    std::uint64_t seed = 9717;
    /** Emit a main(); turn off to embed the TU in a larger harness. */
    bool emitMain = true;
    /** Parameter bindings layered over the program's defaults. */
    ParamBindings paramOverrides;
    /** Free-form tag recorded in the file header ("original", ...). */
    std::string variantLabel = "original";
};

/** The product of one emission. */
struct CodegenUnit
{
    /** The complete C99 translation unit. */
    std::string source;
    /** The concrete parameter bindings the code was emitted under. */
    ParamBindings params;
    /** Declared array names, in declaration (= checksum) order. */
    std::vector<std::string> arrayNames;
    /**
     * True when the dataflow engine proved every access stays within
     * extent + halo under the emission parameters. The source then
     * carries a "ujam: bounds-proven" header comment, and
     * ujam-codegen --run skips its dynamic halo-slack guard.
     */
    bool boundsProven = false;
};

/**
 * Lower a program to C.
 *
 * @param program  A validated program (see validateProgramStrict);
 *                 emission is defined for exactly what the strict
 *                 validator accepts.
 * @param options  Emission switches.
 * @return The generated translation unit.
 * @throws FatalError when a bound or extent cannot be evaluated under
 *         the resolved parameters, or an array exceeds the
 *         interpreter's element cap (the same programs the
 *         interpreter itself refuses).
 */
CodegenUnit emitCProgram(const Program &program,
                         const CodegenOptions &options = {});

} // namespace ujam

#endif // UJAM_CODEGEN_C_EMITTER_HH
