#include "parser/parser.hh"


#include "parser/lexer.hh"
#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** Deepest loop nest the recursive-descent parser accepts. */
constexpr std::size_t kMaxLoopDepth = 64;

/**
 * Deepest expression/bound nesting accepted. Each parenthesis, unary
 * minus, and align() term costs one level; the cap turns a would-be
 * stack overflow into a FatalError.
 */
constexpr std::size_t kMaxExprDepth = 256;

/**
 * Token-stream cursor with the recursive-descent routines.
 */
class Parser
{
  public:
    Parser(const std::string &source, std::string source_name)
        : tokens_(tokenize(source)), source_name_(std::move(source_name))
    {}

    Program
    parse()
    {
        Program program;
        program.setSourceName(source_name_);
        std::string nest_name;
        for (;;) {
            skipNewlines();
            const Token &token = peek();
            if (token.kind == TokenKind::End)
                break;
            if (token.kind == TokenKind::NestName) {
                nest_name = token.text;
                advance();
                continue;
            }
            if (token.kind != TokenKind::Ident)
                errorHere("expected a declaration or 'do' loop");
            if (token.text == "param") {
                parseParam(program);
            } else if (token.text == "real") {
                parseReal(program);
            } else if (token.text == "do") {
                LoopNest nest = parseNest();
                nest.setName(nest_name);
                nest_name.clear();
                program.addNest(std::move(nest));
            } else {
                errorHere(concat("unexpected '", token.text, "'"));
            }
        }
        return program;
    }

  private:
    const Token &
    peek(std::size_t ahead = 0) const
    {
        std::size_t index = pos_ + ahead;
        if (index >= tokens_.size())
            index = tokens_.size() - 1;
        return tokens_[index];
    }

    const Token &
    advance()
    {
        const Token &token = tokens_[pos_];
        if (pos_ + 1 < tokens_.size())
            ++pos_;
        return token;
    }

    bool
    checkIdent(const std::string &word) const
    {
        return peek().kind == TokenKind::Ident && peek().text == word;
    }

    bool
    acceptIdent(const std::string &word)
    {
        if (!checkIdent(word))
            return false;
        advance();
        return true;
    }

    const Token &
    expect(TokenKind kind, const char *what)
    {
        if (peek().kind != kind)
            errorHere(concat("expected ", what, ", found ",
                             tokenKindName(peek().kind)));
        return advance();
    }

    [[noreturn]] void
    errorHere(const std::string &message) const
    {
        fatal(source_name_, ":", peek().line, ":", peek().col, ": ",
              message);
    }

    /** @return The source position of the token at the cursor. */
    SourceLoc
    locHere() const
    {
        return SourceLoc{peek().line, peek().col};
    }

    /** RAII depth bump that rejects runaway recursion. */
    class DepthGuard
    {
      public:
        DepthGuard(Parser &parser, std::size_t &depth, std::size_t limit,
                   const char *what)
            : depth_(depth)
        {
            if (++depth_ > limit) {
                parser.errorHere(concat(what, " nested deeper than ",
                                        std::to_string(limit), " levels"));
            }
        }

        ~DepthGuard() { --depth_; }

      private:
        std::size_t &depth_;
    };

    void
    skipNewlines()
    {
        while (peek().kind == TokenKind::Newline)
            advance();
    }

    void
    endStatement()
    {
        if (peek().kind == TokenKind::End)
            return;
        expect(TokenKind::Newline, "end of line");
    }

    void
    parseParam(Program &program)
    {
        advance(); // 'param'
        std::string name = expect(TokenKind::Ident, "parameter name").text;
        expect(TokenKind::Equals, "'='");
        std::int64_t sign = 1;
        if (peek().kind == TokenKind::Minus) {
            advance();
            sign = -1;
        }
        std::int64_t value =
            expect(TokenKind::Integer, "integer value").intValue;
        program.setParamDefault(name, sign * value);
        endStatement();
    }

    void
    parseReal(Program &program)
    {
        advance(); // 'real'
        ArrayDecl decl;
        decl.name = expect(TokenKind::Ident, "array name").text;
        expect(TokenKind::LParen, "'('");
        decl.extents.push_back(parseBound());
        while (peek().kind == TokenKind::Comma) {
            advance();
            decl.extents.push_back(parseBound());
        }
        expect(TokenKind::RParen, "')'");
        program.declareArray(std::move(decl));
        endStatement();
    }

    /** Affine bound over parameters, or align(lo, hi, f). */
    Bound
    parseBound()
    {
        Bound bound = Bound::constant(0);
        bool first = true;
        std::int64_t sign = 1;
        for (;;) {
            if (peek().kind == TokenKind::Plus) {
                advance();
                sign = 1;
            } else if (peek().kind == TokenKind::Minus) {
                advance();
                sign = -1;
            } else if (!first) {
                break;
            }
            bound = addBoundTerm(bound, sign);
            first = false;
            sign = 1;
            if (peek().kind != TokenKind::Plus &&
                peek().kind != TokenKind::Minus) {
                break;
            }
        }
        return bound;
    }

    Bound
    addBoundTerm(const Bound &base, std::int64_t sign)
    {
        if (checkIdent("align")) {
            DepthGuard guard(*this, expr_depth_, kMaxExprDepth,
                             "align() bound");
            advance();
            expect(TokenKind::LParen, "'('");
            Bound lower = parseBound();
            expect(TokenKind::Comma, "','");
            Bound upper = parseBound();
            expect(TokenKind::Comma, "','");
            std::int64_t factor =
                expect(TokenKind::Integer, "alignment factor").intValue;
            expect(TokenKind::RParen, "')'");
            if (sign != 1)
                errorHere("align() cannot be negated");
            return Bound::sum(base,
                              Bound::alignedUpper(lower, upper, factor));
        }
        if (peek().kind == TokenKind::Integer) {
            std::int64_t value = advance().intValue;
            if (peek().kind == TokenKind::Star) {
                advance();
                std::string name =
                    expect(TokenKind::Ident, "parameter name").text;
                return Bound::sum(base,
                                  Bound::param(name, sign * value, 0));
            }
            return base.plus(sign * value);
        }
        if (peek().kind == TokenKind::Ident) {
            std::string name = advance().text;
            std::int64_t coeff = sign;
            if (peek().kind == TokenKind::Star) {
                advance();
                coeff = sign *
                        expect(TokenKind::Integer, "coefficient").intValue;
            }
            return Bound::sum(base, Bound::param(name, coeff, 0));
        }
        errorHere("expected a bound term");
    }

    /** Parse a do-loop nest starting at the 'do' keyword. */
    LoopNest
    parseNest()
    {
        std::vector<Loop> loops;
        std::vector<Stmt> preheader;
        std::vector<Stmt> postheader;
        std::vector<Stmt> body;
        parseDo(loops, preheader, postheader, body);
        LoopNest nest(std::move(loops), std::move(body));
        nest.preheader() = std::move(preheader);
        nest.postheader() = std::move(postheader);
        return nest;
    }

    void
    parseDo(std::vector<Loop> &loops, std::vector<Stmt> &preheader,
            std::vector<Stmt> &postheader, std::vector<Stmt> &body)
    {
        DepthGuard guard(*this, loop_depth_, kMaxLoopDepth, "loops");
        Loop loop;
        loop.loc = locHere();
        advance(); // 'do'
        loop.iv = expect(TokenKind::Ident, "induction variable").text;
        expect(TokenKind::Equals, "'='");
        loop.lower = parseBound();
        expect(TokenKind::Comma, "','");
        loop.upper = parseBound();
        if (peek().kind == TokenKind::Comma) {
            advance();
            loop.step = expect(TokenKind::Integer, "step").intValue;
            if (loop.step < 1)
                errorHere(concat("loop step must be at least 1, got ",
                                 std::to_string(loop.step)));
        }
        endStatement();
        loops.push_back(std::move(loop));

        skipNewlines();
        // Preheader statements may precede the innermost loop.
        std::vector<Stmt> local_pre;
        while (checkIdent("pre")) {
            advance();
            local_pre.push_back(parseStmt(loops));
            skipNewlines();
        }
        if (checkIdent("do")) {
            if (!local_pre.empty()) {
                UJAM_ASSERT(preheader.empty(),
                            "preheader at two nesting levels");
                preheader = std::move(local_pre);
            }
            parseDo(loops, preheader, postheader, body);
        } else {
            for (Stmt &stmt : local_pre)
                preheader.push_back(std::move(stmt));
            while (!checkIdent("end")) {
                if (peek().kind == TokenKind::End)
                    errorHere("unexpected end of input inside loop body");
                body.push_back(parseStmt(loops));
                skipNewlines();
            }
        }
        skipNewlines();
        if (!acceptIdent("end"))
            errorHere("expected 'end' closing the loop");
        acceptIdent("do");
        endStatement();
        skipNewlines();
        // Postheader statements follow the innermost 'end do'; they
        // attach to the nest's (single) postheader.
        while (checkIdent("post")) {
            advance();
            postheader.push_back(parseStmt(loops));
            skipNewlines();
        }
    }

    Stmt
    parseStmt(const std::vector<Loop> &loops)
    {
        SourceLoc stmt_loc = locHere();
        if (checkIdent("prefetch")) {
            advance();
            SourceLoc ref_loc = locHere();
            std::string array =
                expect(TokenKind::Ident, "array name").text;
            ArrayRef ref = parseRefSubscripts(array, loops, ref_loc);
            endStatement();
            Stmt stmt = Stmt::prefetch(std::move(ref));
            stmt.setLoc(stmt_loc);
            return stmt;
        }
        std::string name = expect(TokenKind::Ident, "assignment target").text;
        if (peek().kind == TokenKind::LParen) {
            ArrayRef lhs = parseRefSubscripts(name, loops, stmt_loc);
            expect(TokenKind::Equals, "'='");
            ExprPtr rhs = parseExpr(loops);
            endStatement();
            Stmt stmt = Stmt::assignArray(std::move(lhs), std::move(rhs));
            stmt.setLoc(stmt_loc);
            return stmt;
        }
        expect(TokenKind::Equals, "'='");
        ExprPtr rhs = parseExpr(loops);
        endStatement();
        Stmt stmt = Stmt::assignScalar(std::move(name), std::move(rhs));
        stmt.setLoc(stmt_loc);
        return stmt;
    }

    ArrayRef
    parseRefSubscripts(const std::string &array,
                       const std::vector<Loop> &loops, SourceLoc loc)
    {
        expect(TokenKind::LParen, "'('");
        std::vector<IntVector> rows;
        std::vector<std::int64_t> offsets;
        parseSubscript(loops, rows, offsets);
        while (peek().kind == TokenKind::Comma) {
            advance();
            parseSubscript(loops, rows, offsets);
        }
        expect(TokenKind::RParen, "')'");
        IntVector offset(offsets.size());
        for (std::size_t d = 0; d < offsets.size(); ++d)
            offset[d] = offsets[d];
        ArrayRef ref(array, std::move(rows), std::move(offset));
        ref.setLoc(loc);
        return ref;
    }

    void
    parseSubscript(const std::vector<Loop> &loops,
                   std::vector<IntVector> &rows,
                   std::vector<std::int64_t> &offsets)
    {
        IntVector row(loops.size());
        std::int64_t constant = 0;
        std::int64_t sign = 1;
        bool first = true;
        for (;;) {
            if (peek().kind == TokenKind::Plus) {
                advance();
                sign = 1;
            } else if (peek().kind == TokenKind::Minus) {
                advance();
                sign = -1;
            } else if (!first) {
                break;
            }
            if (peek().kind == TokenKind::Integer) {
                std::int64_t value = advance().intValue;
                if (peek().kind == TokenKind::Star) {
                    advance();
                    std::string iv =
                        expect(TokenKind::Ident, "induction variable").text;
                    row[ivIndexOrFail(loops, iv)] += sign * value;
                } else {
                    constant += sign * value;
                }
            } else if (peek().kind == TokenKind::Ident) {
                std::string iv = advance().text;
                std::int64_t coeff = 1;
                if (peek().kind == TokenKind::Star) {
                    advance();
                    coeff = expect(TokenKind::Integer, "coefficient")
                                .intValue;
                }
                row[ivIndexOrFail(loops, iv)] += sign * coeff;
            } else {
                errorHere("expected a subscript term");
            }
            first = false;
            sign = 1;
            if (peek().kind != TokenKind::Plus &&
                peek().kind != TokenKind::Minus) {
                break;
            }
        }
        rows.push_back(std::move(row));
        offsets.push_back(constant);
    }

    std::size_t
    ivIndexOrFail(const std::vector<Loop> &loops, const std::string &iv)
    {
        for (std::size_t k = 0; k < loops.size(); ++k) {
            if (loops[k].iv == iv)
                return k;
        }
        errorHere(concat("unknown induction variable '", iv,
                         "' in subscript"));
    }

    ExprPtr
    parseExpr(const std::vector<Loop> &loops)
    {
        ExprPtr lhs = parseTerm(loops);
        for (;;) {
            if (peek().kind == TokenKind::Plus) {
                advance();
                lhs = Expr::binary(BinOp::Add, lhs, parseTerm(loops));
            } else if (peek().kind == TokenKind::Minus) {
                advance();
                lhs = Expr::binary(BinOp::Sub, lhs, parseTerm(loops));
            } else {
                return lhs;
            }
        }
    }

    ExprPtr
    parseTerm(const std::vector<Loop> &loops)
    {
        ExprPtr lhs = parseUnary(loops);
        for (;;) {
            if (peek().kind == TokenKind::Star) {
                advance();
                lhs = Expr::binary(BinOp::Mul, lhs, parseUnary(loops));
            } else if (peek().kind == TokenKind::Slash) {
                advance();
                lhs = Expr::binary(BinOp::Div, lhs, parseUnary(loops));
            } else {
                return lhs;
            }
        }
    }

    ExprPtr
    parseUnary(const std::vector<Loop> &loops)
    {
        DepthGuard guard(*this, expr_depth_, kMaxExprDepth, "expressions");
        if (peek().kind == TokenKind::Minus) {
            advance();
            ExprPtr operand = parseUnary(loops);
            if (operand->kind() == Expr::Kind::Constant)
                return Expr::constant(-operand->constantValue());
            return Expr::binary(BinOp::Sub, Expr::constant(0.0), operand);
        }
        return parsePrimary(loops);
    }

    ExprPtr
    parsePrimary(const std::vector<Loop> &loops)
    {
        if (peek().kind == TokenKind::Integer)
            return Expr::constant(
                static_cast<double>(advance().intValue));
        if (peek().kind == TokenKind::Float)
            return Expr::constant(advance().floatValue);
        if (peek().kind == TokenKind::LParen) {
            advance();
            ExprPtr inner = parseExpr(loops);
            expect(TokenKind::RParen, "')'");
            return inner;
        }
        if (peek().kind == TokenKind::Ident) {
            SourceLoc loc = locHere();
            std::string name = advance().text;
            if (peek().kind == TokenKind::LParen) {
                return Expr::arrayRead(
                    parseRefSubscripts(name, loops, loc));
            }
            return Expr::scalar(std::move(name));
        }
        errorHere("expected an expression");
    }

    std::vector<Token> tokens_;
    std::string source_name_;
    std::size_t pos_ = 0;
    std::size_t loop_depth_ = 0;
    std::size_t expr_depth_ = 0;
};

} // namespace

Program
parseProgram(const std::string &source, const std::string &source_name)
{
    Parser parser(source, source_name);
    return parser.parse();
}

LoopNest
parseSingleNest(const std::string &source)
{
    Program program = parseProgram(source);
    if (program.nests().size() != 1)
        fatal("expected exactly one nest, found ",
              program.nests().size());
    return program.nests().front();
}

} // namespace ujam
