#include "ir/printer.hh"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

void
renderExprTo(std::ostringstream &os, const Expr &expr,
             const std::vector<std::string> &ivs)
{
    switch (expr.kind()) {
      case Expr::Kind::Constant: {
        // The shortest fixed-notation text that reads back as the
        // constant, sign of zero included (the lexer takes no
        // exponents, and a double needs at most a few hundred
        // digits); integral values get a ".0" so they lex as floats.
        char text[512];
        auto [end, ec] =
            std::to_chars(text, text + sizeof text, expr.constantValue(),
                          std::chars_format::fixed);
        UJAM_ASSERT(ec == std::errc(), "constant too long to print");
        os.write(text, end - text);
        if (std::find(text, end, '.') == end)
            os << ".0";
        return;
      }
      case Expr::Kind::Scalar:
        os << expr.scalarName();
        return;
      case Expr::Kind::ArrayRead:
        os << expr.ref().toString(ivs);
        return;
      case Expr::Kind::Binary:
        os << "(";
        renderExprTo(os, *expr.lhs(), ivs);
        os << " " << binOpSpelling(expr.op()) << " ";
        renderExprTo(os, *expr.rhs(), ivs);
        os << ")";
        return;
    }
    panic("unknown expression kind");
}

} // namespace

std::string
renderExpr(const ExprPtr &expr, const std::vector<std::string> &ivs)
{
    UJAM_ASSERT(expr, "rendering null expression");
    std::ostringstream os;
    renderExprTo(os, *expr, ivs);
    return os.str();
}

std::string
renderStmt(const Stmt &stmt, const std::vector<std::string> &ivs)
{
    if (stmt.isPrefetch())
        return concat("prefetch ", stmt.prefetchRef().toString(ivs));
    std::string lhs = stmt.lhsIsArray() ? stmt.lhsRef().toString(ivs)
                                        : stmt.lhsScalar();
    return concat(lhs, " = ", renderExpr(stmt.rhs(), ivs));
}

std::string
renderLoopNest(const LoopNest &nest)
{
    std::ostringstream os;
    const std::vector<std::string> ivs = nest.ivNames();
    std::string indent;
    // Pre/postheaders run once per outer iteration, immediately
    // around the innermost loop -- i.e. at depth() - 1 levels of
    // indentation.
    if (nest.depth() <= 1) {
        for (const Stmt &stmt : nest.preheader())
            os << "pre " << renderStmt(stmt, ivs) << "\n";
    }
    for (std::size_t k = 0; k < nest.depth(); ++k) {
        const Loop &loop = nest.loop(k);
        os << indent << "do " << loop.iv << " = " << loop.lower.toString()
           << ", " << loop.upper.toString();
        if (loop.step != 1)
            os << ", " << loop.step;
        os << "\n";
        indent += "  ";
        if (k + 2 == nest.depth()) {
            for (const Stmt &stmt : nest.preheader())
                os << indent << "pre " << renderStmt(stmt, ivs) << "\n";
        }
    }
    for (const Stmt &stmt : nest.body())
        os << indent << renderStmt(stmt, ivs) << "\n";
    for (std::size_t k = nest.depth(); k > 0; --k) {
        indent = std::string(2 * (k - 1), ' ');
        if (k == nest.depth()) {
            os << indent << "end do\n";
            for (const Stmt &stmt : nest.postheader()) {
                os << indent << "post " << renderStmt(stmt, ivs)
                   << "\n";
            }
        } else {
            os << indent << "end do\n";
        }
    }
    return os.str();
}

std::string
renderProgram(const Program &program)
{
    std::ostringstream os;
    for (const auto &[name, value] : program.paramDefaults())
        os << "param " << name << " = " << value << "\n";
    for (const ArrayDecl &decl : program.arrays()) {
        os << "real " << decl.name << "(";
        for (std::size_t d = 0; d < decl.extents.size(); ++d) {
            if (d > 0)
                os << ", ";
            os << decl.extents[d].toString();
        }
        os << ")\n";
    }
    for (const LoopNest &nest : program.nests()) {
        os << "\n";
        if (!nest.name().empty())
            os << "! nest: " << nest.name() << "\n";
        os << renderLoopNest(nest);
    }
    return os.str();
}

} // namespace ujam
