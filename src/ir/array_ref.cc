#include "ir/array_ref.hh"

#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

ArrayRef::ArrayRef(std::string array, std::vector<IntVector> rows,
                   IntVector offset)
    : array_(std::move(array)), rows_(std::move(rows)),
      offset_(std::move(offset))
{
    UJAM_ASSERT(rows_.size() == offset_.size(),
                "subscript row/offset count mismatch in reference to ",
                array_);
    for (const IntVector &row : rows_) {
        UJAM_ASSERT(row.size() == rows_.front().size(),
                    "ragged subscript matrix in reference to ", array_);
    }
}

std::size_t
ArrayRef::depth() const
{
    return rows_.empty() ? 0 : rows_.front().size();
}

RatMatrix
ArrayRef::subscriptMatrix() const
{
    RatMatrix result(dims(), depth());
    for (std::size_t d = 0; d < dims(); ++d) {
        for (std::size_t k = 0; k < depth(); ++k)
            result.at(d, k) = Rational(rows_[d][k]);
    }
    return result;
}

RatMatrix
ArrayRef::spatialSubscriptMatrix() const
{
    RatMatrix result = subscriptMatrix();
    for (std::size_t k = 0; k < depth(); ++k)
        result.at(0, k) = Rational(0);
    return result;
}

IntVector
ArrayRef::spatialOffset() const
{
    IntVector result = offset_;
    if (result.size() > 0)
        result[0] = 0;
    return result;
}

bool
ArrayRef::isSivSeparable() const
{
    std::vector<bool> column_used(depth(), false);
    for (const IntVector &row : rows_) {
        int nonzero = 0;
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (row[k] == 0)
                continue;
            ++nonzero;
            if (nonzero > 1)
                return false; // multiple induction variables in one row
            if (column_used[k])
                return false; // induction variable used in two rows
            column_used[k] = true;
        }
    }
    return true;
}

bool
ArrayRef::uniformlyGeneratedWith(const ArrayRef &other) const
{
    return array_ == other.array_ && rows_ == other.rows_;
}

ArrayRef
ArrayRef::shifted(const IntVector &shift) const
{
    UJAM_ASSERT(shift.size() == depth(), "shift depth mismatch");
    IntVector new_offset = offset_;
    for (std::size_t d = 0; d < dims(); ++d) {
        std::int64_t dot = 0;
        for (std::size_t k = 0; k < depth(); ++k)
            dot = checkedAdd(dot, checkedMul(rows_[d][k], shift[k]));
        new_offset[d] = checkedAdd(new_offset[d], dot);
    }
    ArrayRef result(array_, rows_, new_offset);
    result.loc_ = loc_; // an unroll copy still points at its source
    return result;
}

ArrayRef
ArrayRef::unitStepped(std::size_t k, std::int64_t lb, std::int64_t s) const
{
    std::vector<IntVector> rows = rows_;
    IntVector offset = offset_;
    for (std::size_t d = 0; d < rows.size(); ++d) {
        std::int64_t a = rows[d][k];
        if (a == 0)
            continue;
        rows[d][k] = checkedMul(a, s);
        offset[d] = checkedAdd(offset[d], checkedMul(a, lb - s));
    }
    return ArrayRef(array_, std::move(rows), std::move(offset));
}

std::pair<int, std::int64_t>
ArrayRef::termForLoop(std::size_t k) const
{
    UJAM_ASSERT(k < depth(), "loop index out of range");
    for (std::size_t d = 0; d < dims(); ++d) {
        if (rows_[d][k] != 0)
            return {static_cast<int>(d), rows_[d][k]};
    }
    return {-1, 0};
}

std::string
ArrayRef::toString(const std::vector<std::string> &ivs) const
{
    std::ostringstream os;
    os << array_ << "(";
    for (std::size_t d = 0; d < dims(); ++d) {
        if (d > 0)
            os << ", ";
        bool printed = false;
        for (std::size_t k = 0; k < depth(); ++k) {
            std::int64_t coeff = rows_[d][k];
            if (coeff == 0)
                continue;
            std::string name = k < ivs.size() ? ivs[k]
                                              : concat("i", k + 1);
            if (!printed) {
                if (coeff == 1) {
                    os << name;
                } else if (coeff == -1) {
                    os << "-" << name;
                } else {
                    os << coeff << "*" << name;
                }
            } else {
                if (coeff == 1) {
                    os << "+" << name;
                } else if (coeff == -1) {
                    os << "-" << name;
                } else if (coeff > 0) {
                    os << "+" << coeff << "*" << name;
                } else {
                    os << coeff << "*" << name;
                }
            }
            printed = true;
        }
        std::int64_t c = offset_[d];
        if (!printed) {
            os << c;
        } else if (c > 0) {
            os << "+" << c;
        } else if (c < 0) {
            os << c;
        }
    }
    os << ")";
    return os.str();
}

std::string
ArrayRef::toString() const
{
    return toString({});
}

} // namespace ujam
