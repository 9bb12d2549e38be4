#include "ir/expr.hh"

#include <bit>
#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

const char *
binOpSpelling(BinOp op)
{
    switch (op) {
      case BinOp::Add:
        return "+";
      case BinOp::Sub:
        return "-";
      case BinOp::Mul:
        return "*";
      case BinOp::Div:
        return "/";
    }
    panic("unknown binary operator");
}

ExprPtr
Expr::constant(double value)
{
    auto node = std::shared_ptr<Expr>(new Expr(Kind::Constant));
    node->constant_ = value;
    return node;
}

ExprPtr
Expr::scalar(std::string name)
{
    auto node = std::shared_ptr<Expr>(new Expr(Kind::Scalar));
    node->scalar_ = std::move(name);
    return node;
}

ExprPtr
Expr::arrayRead(ArrayRef ref)
{
    auto node = std::shared_ptr<Expr>(new Expr(Kind::ArrayRead));
    node->ref_ = std::move(ref);
    return node;
}

ExprPtr
Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs)
{
    UJAM_ASSERT(lhs && rhs, "binary expression with null operand");
    auto node = std::shared_ptr<Expr>(new Expr(Kind::Binary));
    node->op_ = op;
    node->lhs_ = std::move(lhs);
    node->rhs_ = std::move(rhs);
    return node;
}

double
Expr::constantValue() const
{
    UJAM_ASSERT(kind_ == Kind::Constant, "not a constant");
    return constant_;
}

const std::string &
Expr::scalarName() const
{
    UJAM_ASSERT(kind_ == Kind::Scalar, "not a scalar");
    return scalar_;
}

const ArrayRef &
Expr::ref() const
{
    UJAM_ASSERT(kind_ == Kind::ArrayRead, "not an array read");
    return ref_;
}

BinOp
Expr::op() const
{
    UJAM_ASSERT(kind_ == Kind::Binary, "not a binary expression");
    return op_;
}

const ExprPtr &
Expr::lhs() const
{
    UJAM_ASSERT(kind_ == Kind::Binary, "not a binary expression");
    return lhs_;
}

const ExprPtr &
Expr::rhs() const
{
    UJAM_ASSERT(kind_ == Kind::Binary, "not a binary expression");
    return rhs_;
}

std::size_t
Expr::countFlops() const
{
    if (kind_ != Kind::Binary)
        return 0;
    return 1 + lhs_->countFlops() + rhs_->countFlops();
}

void
Expr::forEachArrayRead(
    const std::function<void(const ArrayRef &)> &fn) const
{
    switch (kind_) {
      case Kind::Constant:
      case Kind::Scalar:
        return;
      case Kind::ArrayRead:
        fn(ref_);
        return;
      case Kind::Binary:
        lhs_->forEachArrayRead(fn);
        rhs_->forEachArrayRead(fn);
        return;
    }
}

void
Expr::forEachScalarRead(
    const std::function<void(const std::string &)> &fn) const
{
    switch (kind_) {
      case Kind::Constant:
      case Kind::ArrayRead:
        return;
      case Kind::Scalar:
        fn(scalar_);
        return;
      case Kind::Binary:
        lhs_->forEachScalarRead(fn);
        rhs_->forEachScalarRead(fn);
        return;
    }
}

bool
Expr::operator==(const Expr &other) const
{
    if (this == &other)
        return true;
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Constant:
        return std::bit_cast<std::uint64_t>(constant_) ==
               std::bit_cast<std::uint64_t>(other.constant_);
      case Kind::Scalar:
        return scalar_ == other.scalar_;
      case Kind::ArrayRead:
        return ref_ == other.ref_;
      case Kind::Binary:
        return op_ == other.op_ && *lhs_ == *other.lhs_ &&
               *rhs_ == *other.rhs_;
    }
    return false;
}

ExprPtr
Expr::rewriteArrayReads(
    const std::function<ExprPtr(const ArrayRef &)> &fn) const
{
    switch (kind_) {
      case Kind::Constant:
        return constant(constant_);
      case Kind::Scalar:
        return scalar(scalar_);
      case Kind::ArrayRead: {
        ExprPtr replacement = fn(ref_);
        return replacement ? replacement : arrayRead(ref_);
      }
      case Kind::Binary: {
        // Sequence explicitly: callers count reads in source order and
        // argument evaluation order is unspecified.
        ExprPtr new_lhs = lhs_->rewriteArrayReads(fn);
        ExprPtr new_rhs = rhs_->rewriteArrayReads(fn);
        return binary(op_, std::move(new_lhs), std::move(new_rhs));
      }
    }
    panic("unknown expression kind");
}

std::string
Expr::toString() const
{
    switch (kind_) {
      case Kind::Constant: {
        std::ostringstream os;
        os << constant_;
        return os.str();
      }
      case Kind::Scalar:
        return scalar_;
      case Kind::ArrayRead:
        return ref_.toString();
      case Kind::Binary:
        return concat("(", lhs_->toString(), " ", binOpSpelling(op_), " ",
                      rhs_->toString(), ")");
    }
    panic("unknown expression kind");
}

} // namespace ujam
