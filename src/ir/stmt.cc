#include "ir/stmt.hh"

#include "support/diagnostics.hh"

namespace ujam
{

Stmt
Stmt::assignArray(ArrayRef lhs, ExprPtr rhs)
{
    UJAM_ASSERT(rhs, "statement with null RHS");
    Stmt stmt;
    stmt.lhs_is_array_ = true;
    stmt.lhs_ref_ = std::move(lhs);
    stmt.rhs_ = std::move(rhs);
    return stmt;
}

Stmt
Stmt::assignScalar(std::string lhs, ExprPtr rhs)
{
    UJAM_ASSERT(rhs, "statement with null RHS");
    Stmt stmt;
    stmt.lhs_is_array_ = false;
    stmt.lhs_scalar_ = std::move(lhs);
    stmt.rhs_ = std::move(rhs);
    return stmt;
}

Stmt
Stmt::prefetch(ArrayRef ref)
{
    Stmt stmt;
    stmt.is_prefetch_ = true;
    stmt.lhs_ref_ = std::move(ref);
    return stmt;
}

const ArrayRef &
Stmt::prefetchRef() const
{
    UJAM_ASSERT(is_prefetch_, "not a prefetch statement");
    return lhs_ref_;
}

const ArrayRef &
Stmt::lhsRef() const
{
    UJAM_ASSERT(lhs_is_array_, "LHS is not an array reference");
    return lhs_ref_;
}

const std::string &
Stmt::lhsScalar() const
{
    UJAM_ASSERT(!lhs_is_array_, "LHS is not a scalar");
    return lhs_scalar_;
}

void
Stmt::forEachAccess(
    const std::function<void(const ArrayRef &, bool)> &fn) const
{
    // Prefetches are hints, not data accesses: the reuse and
    // dependence analyses must not see them.
    if (is_prefetch_)
        return;
    if (rhs_)
        rhs_->forEachArrayRead([&](const ArrayRef &ref) { fn(ref, false); });
    if (lhs_is_array_)
        fn(lhs_ref_, true);
}

bool
Stmt::isReduction() const
{
    if (!lhs_is_array_ || !rhs_)
        return false;
    // Walk top-level chains of + looking for a read of the LHS element.
    const Expr *node = rhs_.get();
    std::vector<const Expr *> work{node};
    while (!work.empty()) {
        const Expr *e = work.back();
        work.pop_back();
        if (e->kind() == Expr::Kind::ArrayRead) {
            if (e->ref() == lhs_ref_)
                return true;
        } else if (e->kind() == Expr::Kind::Binary &&
                   e->op() == BinOp::Add) {
            work.push_back(e->lhs().get());
            work.push_back(e->rhs().get());
        }
    }
    return false;
}

bool
Stmt::operator==(const Stmt &other) const
{
    if (is_prefetch_ != other.is_prefetch_ ||
        lhs_is_array_ != other.lhs_is_array_ ||
        !(lhs_ref_ == other.lhs_ref_) || lhs_scalar_ != other.lhs_scalar_)
        return false;
    if (!rhs_ || !other.rhs_)
        return !rhs_ && !other.rhs_;
    return *rhs_ == *other.rhs_;
}

std::string
Stmt::toString() const
{
    if (is_prefetch_)
        return concat("prefetch ", lhs_ref_.toString());
    std::string lhs =
        lhs_is_array_ ? lhs_ref_.toString() : lhs_scalar_;
    return concat(lhs, " = ", rhs_ ? rhs_->toString() : "<null>");
}

} // namespace ujam
