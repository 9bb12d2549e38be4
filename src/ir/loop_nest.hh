/**
 * @file
 * Perfect loop nests.
 *
 * The analyses of this library operate on perfect nests of DO loops
 * around a block of assignment statements -- the shape unroll-and-jam
 * applies to. Loops are numbered outermost (0) to innermost
 * (depth-1), matching the paper's index-vector convention.
 *
 * A nest optionally carries a preheader and a postheader: statements
 * executed once per iteration of the outer loops, immediately before
 * (after) the innermost loop, with the innermost induction variable
 * bound to its first (last executed) value; neither runs when the
 * innermost loop has no iterations. Scalar replacement emits its
 * initializing loads in the preheader and hoisted stores in the
 * postheader.
 */

#ifndef UJAM_IR_LOOP_NEST_HH
#define UJAM_IR_LOOP_NEST_HH

#include <string>
#include <vector>

#include "ir/bound.hh"
#include "ir/source_loc.hh"
#include "ir/stmt.hh"

namespace ujam
{

/**
 * One DO loop: induction variable, bounds and step.
 */
struct Loop
{
    std::string iv;        //!< induction variable name
    Bound lower;           //!< first value
    Bound upper;           //!< last value (inclusive)
    std::int64_t step = 1; //!< increment; always positive
    SourceLoc loc{};       //!< the 'do' keyword's source position

    /** @return Trip count for concrete parameter bindings (>= 0). */
    std::int64_t tripCount(const ParamBindings &params) const;

    /** Structural equality; the source location is ignored. */
    bool
    operator==(const Loop &other) const
    {
        return iv == other.iv && lower == other.lower &&
               upper == other.upper && step == other.step;
    }
};

/**
 * One array access inside a nest body, with its position.
 */
struct Access
{
    ArrayRef ref;          //!< the reference
    bool isWrite = false;  //!< true for the LHS of an assignment
    std::size_t stmt = 0;  //!< index of the owning statement
    std::size_t ordinal = 0; //!< position within all accesses of the body

    bool operator==(const Access &other) const = default;
};

/**
 * A perfect loop nest.
 */
class LoopNest
{
  public:
    LoopNest() = default;

    /** Construct with loops and body statements. */
    LoopNest(std::vector<Loop> loops, std::vector<Stmt> body);

    /** @return Nest depth (number of loops). */
    std::size_t depth() const { return loops_.size(); }

    /** @return Loop k (0 == outermost). */
    const Loop &loop(std::size_t k) const { return loops_[k]; }
    Loop &loop(std::size_t k) { return loops_[k]; }

    const std::vector<Loop> &loops() const { return loops_; }

    const std::vector<Stmt> &body() const { return body_; }
    std::vector<Stmt> &body() { return body_; }

    const std::vector<Stmt> &preheader() const { return preheader_; }
    std::vector<Stmt> &preheader() { return preheader_; }

    const std::vector<Stmt> &postheader() const { return postheader_; }
    std::vector<Stmt> &postheader() { return postheader_; }

    /** @return Induction-variable names, outermost first. */
    std::vector<std::string> ivNames() const;

    /** @return All body array accesses in execution order. */
    std::vector<Access> accesses() const;

    /** @return Floating-point operations in one body execution. */
    std::size_t bodyFlops() const;

    /**
     * @return True iff every access is SIV separable and has subscript
     * depth equal to the nest depth.
     */
    bool allRefsAnalyzable() const;

    /** Human-readable name used in reports. */
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /**
     * Structural equality of name, loops and statement lists, source
     * locations ignored: equal nests interpret identically.
     */
    bool operator==(const LoopNest &other) const = default;

  private:
    std::string name_;
    std::vector<Loop> loops_;
    std::vector<Stmt> preheader_;
    std::vector<Stmt> postheader_;
    std::vector<Stmt> body_;
};

/**
 * A declared array: name and per-dimension extents.
 *
 * Arrays are Fortran-like: column-major, subscripts run from 1 to the
 * extent (transforms may read a small halo outside; the interpreter
 * allocates guard margins).
 */
struct ArrayDecl
{
    std::string name;
    std::vector<Bound> extents;
};

/**
 * A compilation unit: parameters, arrays and an ordered list of
 * nests. Transformations that split a nest (fringe loops) append
 * nests that execute after the main one.
 */
class Program
{
  public:
    /** Declare an array; replaces any previous declaration. */
    void declareArray(ArrayDecl decl);

    /** @return The declaration for name; fatal if undeclared. */
    const ArrayDecl &array(const std::string &name) const;

    /** @return True iff name is declared. */
    bool hasArray(const std::string &name) const;

    /** @return All declarations in declaration order. */
    const std::vector<ArrayDecl> &arrays() const { return arrays_; }

    /** Set a default value for a symbolic parameter. */
    void setParamDefault(const std::string &name, std::int64_t value);

    /** @return Declared parameter defaults. */
    const ParamBindings &paramDefaults() const { return param_defaults_; }

    /** Append a nest. */
    void addNest(LoopNest nest);

    const std::vector<LoopNest> &nests() const { return nests_; }
    std::vector<LoopNest> &nests() { return nests_; }

    /**
     * Name of the source this program was parsed from (a file path or
     * "<input>"); purely informational, used by diagnostics.
     */
    const std::string &sourceName() const { return source_name_; }
    void setSourceName(std::string name) { source_name_ = std::move(name); }

  private:
    std::vector<ArrayDecl> arrays_;
    ParamBindings param_defaults_;
    std::vector<LoopNest> nests_;
    std::string source_name_ = "<input>";
};

} // namespace ujam

#endif // UJAM_IR_LOOP_NEST_HH
