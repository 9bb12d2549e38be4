/**
 * @file
 * Expression trees for statement right-hand sides.
 *
 * Expressions are immutable and shared; transformations build new
 * trees that reference existing subtrees. Only the shapes needed by
 * the evaluation loops appear: floating-point constants, scalar
 * variables, array reads, and the four binary operators.
 */

#ifndef UJAM_IR_EXPR_HH
#define UJAM_IR_EXPR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/array_ref.hh"

namespace ujam
{

class Expr;

/** Shared immutable expression handle. */
using ExprPtr = std::shared_ptr<const Expr>;

/** Binary operator kinds; all count as one floating-point operation. */
enum class BinOp { Add, Sub, Mul, Div };

/** @return The operator's source spelling. */
const char *binOpSpelling(BinOp op);

/**
 * An immutable expression tree node.
 */
class Expr
{
  public:
    /** Node kinds. */
    enum class Kind { Constant, Scalar, ArrayRead, Binary };

    /** @return A floating-point literal. */
    static ExprPtr constant(double value);

    /** @return A scalar variable read. */
    static ExprPtr scalar(std::string name);

    /** @return An array element read. */
    static ExprPtr arrayRead(ArrayRef ref);

    /** @return A binary operation node. */
    static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs);

    Kind kind() const { return kind_; }

    /** @pre kind() == Kind::Constant */
    double constantValue() const;

    /** @pre kind() == Kind::Scalar */
    const std::string &scalarName() const;

    /** @pre kind() == Kind::ArrayRead */
    const ArrayRef &ref() const;

    /** @pre kind() == Kind::Binary */
    BinOp op() const;
    /** @pre kind() == Kind::Binary */
    const ExprPtr &lhs() const;
    /** @pre kind() == Kind::Binary */
    const ExprPtr &rhs() const;

    /** @return The number of floating-point operations in the tree. */
    std::size_t countFlops() const;

    /** Invoke fn on every array read in the tree, in source order. */
    void forEachArrayRead(
        const std::function<void(const ArrayRef &)> &fn) const;

    /** Invoke fn on every scalar read in the tree, in source order. */
    void forEachScalarRead(
        const std::function<void(const std::string &)> &fn) const;

    /**
     * Rebuild the tree, replacing each array read by fn's result.
     * Reads for which fn returns nullptr are kept unchanged.
     */
    ExprPtr rewriteArrayReads(
        const std::function<ExprPtr(const ArrayRef &)> &fn) const;

    /** @return Source rendering, fully parenthesized at binaries. */
    std::string toString() const;

    /**
     * Structural equality: kind, operator, scalar names, references
     * (ArrayRef's ==, which ignores source locations) and operands,
     * with constants compared bit for bit, so -0.0 differs from 0.0.
     * Equal trees compute the same value from the same state.
     */
    bool operator==(const Expr &other) const;

  private:
    explicit Expr(Kind kind) : kind_(kind) {}

    Kind kind_;
    double constant_ = 0.0;
    std::string scalar_;
    ArrayRef ref_;
    BinOp op_ = BinOp::Add;
    ExprPtr lhs_;
    ExprPtr rhs_;
};

/** Null-safe forEachScalarRead over an ExprPtr. */
inline void
forEachScalarRead(const ExprPtr &expr,
                  const std::function<void(const std::string &)> &fn)
{
    if (expr)
        expr->forEachScalarRead(fn);
}

} // namespace ujam

#endif // UJAM_IR_EXPR_HH
