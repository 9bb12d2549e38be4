/**
 * @file
 * Assignment statements.
 *
 * A statement assigns an expression either to an array element (the
 * common case in the input language) or to a compiler-generated
 * scalar temporary (produced by scalar replacement).
 */

#ifndef UJAM_IR_STMT_HH
#define UJAM_IR_STMT_HH

#include <functional>
#include <string>

#include "ir/expr.hh"
#include "ir/source_loc.hh"

namespace ujam
{

/**
 * A single statement: an assignment, or a software prefetch.
 */
class Stmt
{
  public:
    Stmt() = default;

    /** @return A statement assigning rhs to an array element. */
    static Stmt assignArray(ArrayRef lhs, ExprPtr rhs);

    /** @return A statement assigning rhs to a scalar variable. */
    static Stmt assignScalar(std::string lhs, ExprPtr rhs);

    /**
     * @return A software-prefetch statement: touch the line holding
     * ref without reading a value or stalling (section 3.2's
     * prefetch-issue model made concrete).
     */
    static Stmt prefetch(ArrayRef ref);

    /** @return True iff this is a prefetch statement. */
    bool isPrefetch() const { return is_prefetch_; }

    /** @pre isPrefetch() */
    const ArrayRef &prefetchRef() const;

    /** @return True iff the destination is an array element. */
    bool lhsIsArray() const { return lhs_is_array_; }

    /** @pre lhsIsArray() */
    const ArrayRef &lhsRef() const;

    /** @pre !lhsIsArray() */
    const std::string &lhsScalar() const;

    /** @return The right-hand side. */
    const ExprPtr &rhs() const { return rhs_; }

    /** Replace the right-hand side. */
    void setRhs(ExprPtr rhs) { rhs_ = std::move(rhs); }

    /** @return The number of floating-point operations on the RHS. */
    std::size_t countFlops() const { return rhs_ ? rhs_->countFlops() : 0; }

    /**
     * Invoke fn on every array access: first the RHS reads in source
     * order, then the LHS write (if any) with is_write == true.
     */
    void forEachAccess(
        const std::function<void(const ArrayRef &, bool is_write)> &fn) const;

    /**
     * @return True iff the statement is a recognized reduction: the
     * LHS array element also appears on the RHS with identical
     * subscripts under a top-level +, e.g. a(j) = a(j) + ...
     * Reduction dependences may be reordered by unroll-and-jam.
     */
    bool isReduction() const;

    /** @return Source rendering with placeholder induction names. */
    std::string toString() const;

    /**
     * Structural equality: kind, destination and right-hand side
     * (Expr's ==). The source location is ignored, as ArrayRef's ==
     * ignores it.
     */
    bool operator==(const Stmt &other) const;

    /** @return The statement's source position (unknown if built). */
    const SourceLoc &loc() const { return loc_; }
    void setLoc(SourceLoc loc) { loc_ = loc; }

  private:
    SourceLoc loc_;
    bool lhs_is_array_ = false;
    bool is_prefetch_ = false;
    ArrayRef lhs_ref_;   //!< assignment target, or prefetch address
    std::string lhs_scalar_;
    ExprPtr rhs_;
};

} // namespace ujam

#endif // UJAM_IR_STMT_HH
