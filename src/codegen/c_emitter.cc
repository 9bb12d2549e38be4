#include "codegen/c_emitter.hh"

#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>

#include "analysis/dataflow.hh"
#include "ir/printer.hh"
#include "ir/validate.hh"
#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** C99 keywords plus every identifier the fixed runtime code uses at
 * file or call scope. DSL names landing here are renamed. */
const std::set<std::string> &
reservedNames()
{
    static const std::set<std::string> reserved = {
        // C99 keywords.
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for",
        "goto", "if", "inline", "int", "long", "register", "restrict",
        "return", "short", "signed", "sizeof", "static", "struct",
        "switch", "typedef", "union", "unsigned", "void", "volatile",
        "while", "_Bool", "_Complex", "_Imaginary",
        // Types and library calls the runtime scaffolding references.
        "int64_t", "uint64_t", "size_t", "main", "argc", "argv",
        "printf", "strtoull", "memcpy", "NULL",
    };
    return reserved;
}

/**
 * Allocates collision-free C identifiers for DSL names. All names --
 * arrays, scalars, induction variables -- share one namespace, so no
 * generated declaration ever shadows another (induction variables are
 * function-local, but a distinct name keeps file-scope arrays
 * reachable from every function).
 */
class NameTable
{
  public:
    NameTable()
    {
        used_ = reservedNames();
    }

    /** @return The C identifier for a DSL name; stable per name. */
    std::string
    claim(const std::string &dsl_name)
    {
        auto it = names_.find(dsl_name);
        if (it != names_.end())
            return it->second;
        std::string base = sanitize(dsl_name);
        std::string candidate = base;
        for (int n = 2; used_.count(candidate); ++n)
            candidate = concat(base, "_", n);
        used_.insert(candidate);
        names_.emplace(dsl_name, candidate);
        return candidate;
    }

  private:
    static std::string
    sanitize(const std::string &name)
    {
        std::string out;
        for (char c : name) {
            bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '_';
            out.push_back(ok ? c : '_');
        }
        if (out.empty() ||
            std::isdigit(static_cast<unsigned char>(out[0]))) {
            out.insert(out.begin(), 'v');
        }
        // The ujam_ prefix is the runtime's; keep DSL names out of it.
        if (startsWithUjam(out))
            out.insert(0, "x_");
        return out;
    }

    static bool
    startsWithUjam(const std::string &s)
    {
        return s.size() >= 4 && s.compare(0, 4, "ujam") == 0;
    }

    std::set<std::string> used_;
    std::map<std::string, std::string> names_;
};

/** One array's storage: the interpreter's layout, under a C name. */
struct CArray : ArrayLayout
{
    std::string cName;
};

/** @return value as a C double literal that round-trips bit-exactly. */
std::string
cDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    std::string text = buf;
    if (text.find_first_of(".eE") == std::string::npos &&
        text.find_first_of("nN") == std::string::npos) {
        text += ".0";
    }
    return text;
}

class Emitter
{
  public:
    Emitter(const Program &program, const CodegenOptions &options)
        : program_(program), options_(options),
          params_(program.paramDefaults())
    {
        for (const auto &[name, value] : options.paramOverrides)
            params_[name] = value;
    }

    CodegenUnit
    emit()
    {
        layoutArrays();
        collectScalars();
        claimIvs();
        boundsProven_ = proveBounds();

        emitFileHeader();
        emitIncludes();
        emitStorage();
        emitRuntimeHelpers();
        emitInit();
        emitNests();
        emitRun();
        emitChecksumApi();
        if (options_.emitMain)
            emitMain();

        CodegenUnit unit;
        unit.source = os_.str();
        unit.params = params_;
        unit.boundsProven = boundsProven_;
        for (const ArrayDecl &decl : program_.arrays())
            unit.arrayNames.push_back(decl.name);
        return unit;
    }

  private:
    // --- symbol and layout discovery --------------------------------

    void
    layoutArrays()
    {
        // The interpreter's own layout and limits, so generated flat
        // indices equal interpreter flat indices and every emittable
        // program is also interpretable.
        for (const ArrayDecl &decl : program_.arrays()) {
            layouts_.emplace(decl.name,
                             CArray{arrayLayout(decl, params_),
                                    names_.claim(decl.name)});
        }
    }

    void
    collectScalars()
    {
        auto note = [&](const std::string &name) {
            if (scalar_names_.emplace(name, "").second)
                scalar_order_.push_back(name);
        };
        auto walk = [&](const std::vector<Stmt> &stmts) {
            for (const Stmt &stmt : stmts) {
                if (stmt.isPrefetch())
                    continue;
                if (!stmt.lhsIsArray())
                    note(stmt.lhsScalar());
                forEachScalarRead(stmt.rhs(), note);
            }
        };
        for (const LoopNest &nest : program_.nests()) {
            walk(nest.preheader());
            walk(nest.body());
            walk(nest.postheader());
        }
        for (const std::string &name : scalar_order_)
            scalar_names_[name] = names_.claim(name);
    }

    void
    claimIvs()
    {
        for (const LoopNest &nest : program_.nests())
            for (const Loop &loop : nest.loops())
                iv_names_.emplace(loop.iv, names_.claim(loop.iv));
    }

    // --- top-level sections -----------------------------------------

    void
    emitFileHeader()
    {
        os_ << "/*\n"
            << " * Generated by ujam-codegen; do not edit.\n"
            << " *\n"
            << " * Variant: " << options_.variantLabel << "\n"
            << " * Source:  " << program_.sourceName() << "\n";
        if (!params_.empty()) {
            os_ << " * Parameters:";
            for (const auto &[name, value] : params_)
                os_ << " " << name << " = " << value << ";";
            os_ << "\n";
        }
        os_ << " * Default seed: " << options_.seed << "\n"
            << " *\n"
            << " * Entry points:\n"
            << " *   void     ujam_init(uint64_t seed);\n"
            << " *   void     ujam_run(void);\n"
            << " *   uint64_t ujam_array_checksum(int a);\n"
            << " *   uint64_t ujam_checksum(void);\n"
            << " */\n\n";
        if (boundsProven_)
            os_ << "/* ujam: bounds-proven */\n\n";
    }

    /**
     * @return True when the dataflow engine proves every access of
     * every nest stays within extent + halo under the emission
     * parameters -- the static bounds certificate. Consumers (the
     * --run halo-slack guard) may then skip their dynamic check.
     */
    bool
    proveBounds() const
    {
        for (const LoopNest &nest : program_.nests()) {
            NestDataflow df(program_, nest, params_);
            if (!df.allInHalo())
                return false;
        }
        return true;
    }

    void
    emitIncludes()
    {
        os_ << "#include <stdint.h>\n"
            << "#include <string.h>\n";
        if (options_.emitMain) {
            os_ << "#include <stdio.h>\n"
                << "#include <stdlib.h>\n";
        }
        os_ << "\n";
        if (programHasPrefetch()) {
            os_ << "#if defined(__GNUC__) || defined(__clang__)\n"
                << "#define UJAM_PREFETCH(addr) "
                   "__builtin_prefetch((addr), 0, 3)\n"
                << "#else\n"
                << "#define UJAM_PREFETCH(addr) ((void)(addr))\n"
                << "#endif\n\n";
        }
    }

    bool
    programHasPrefetch() const
    {
        for (const LoopNest &nest : program_.nests()) {
            for (const std::vector<Stmt> *stmts :
                 {&nest.preheader(), &nest.body(), &nest.postheader()}) {
                for (const Stmt &stmt : *stmts)
                    if (stmt.isPrefetch())
                        return true;
            }
        }
        return false;
    }

    void
    emitStorage()
    {
        for (const ArrayDecl &decl : program_.arrays()) {
            const CArray &layout = layouts_.at(decl.name);
            os_ << "/* " << decl.name << "(";
            for (std::size_t d = 0; d < decl.extents.size(); ++d) {
                os_ << (d ? ", " : "") << decl.extents[d].toString();
            }
            os_ << "): column-major,";
            os_ << " extents";
            for (std::int64_t ext : layout.extents)
                os_ << " " << ext;
            os_ << ", halo " << ArrayLayout::haloElems
                << " per side. */\n";
            os_ << "static double " << layout.cName << "["
                << layout.total << "];\n";
        }
        if (!program_.arrays().empty())
            os_ << "\n";
        for (const std::string &name : scalar_order_) {
            os_ << "static double " << scalar_names_.at(name)
                << " = 0.0; /* scalar " << name << " */\n";
        }
        if (!scalar_order_.empty())
            os_ << "\n";
    }

    void
    emitRuntimeHelpers()
    {
        os_ << "/* SplitMix64-style hash: the deterministic seeding "
               "generator. */\n"
            << "static uint64_t\n"
            << "ujam_mix(uint64_t ujam_x)\n"
            << "{\n"
            << "    ujam_x += 0x9e3779b97f4a7c15ULL;\n"
            << "    ujam_x = (ujam_x ^ (ujam_x >> 30)) * "
               "0xbf58476d1ce4e5b9ULL;\n"
            << "    ujam_x = (ujam_x ^ (ujam_x >> 27)) * "
               "0x94d049bb133111ebULL;\n"
            << "    return ujam_x ^ (ujam_x >> 31);\n"
            << "}\n\n"
            << "/* FNV-1a over each double's bit pattern, "
               "low byte first. */\n"
            << "static uint64_t\n"
            << "ujam_fnv(uint64_t ujam_h, const double *ujam_data,\n"
            << "         int64_t ujam_count)\n"
            << "{\n"
            << "    int64_t ujam_i;\n"
            << "    int ujam_b;\n"
            << "    for (ujam_i = 0; ujam_i < ujam_count; ++ujam_i) {\n"
            << "        uint64_t ujam_bits;\n"
            << "        memcpy(&ujam_bits, &ujam_data[ujam_i], 8);\n"
            << "        for (ujam_b = 0; ujam_b < 8; ++ujam_b) {\n"
            << "            ujam_h ^= (ujam_bits >> (8 * ujam_b)) & "
               "0xffu;\n"
            << "            ujam_h *= 1099511628211ULL;\n"
            << "        }\n"
            << "    }\n"
            << "    return ujam_h;\n"
            << "}\n\n";
    }

    void
    emitInit()
    {
        os_ << "/* Deterministic fill: element i of array a becomes\n"
            << " * 1.0 + (mix(seed ^ mix(a*0x10001 + i)) % 1000003) / "
               "1000003.0. */\n"
            << "void\n"
            << "ujam_init(uint64_t ujam_seed)\n"
            << "{\n"
            << "    int64_t ujam_i;\n";
        std::size_t index = 0;
        for (const ArrayDecl &decl : program_.arrays()) {
            const CArray &layout = layouts_.at(decl.name);
            std::uint64_t base = index * 0x10001ULL;
            os_ << "    for (ujam_i = 0; ujam_i < " << layout.total
                << "; ++ujam_i)\n"
                << "        " << layout.cName
                << "[ujam_i] = 1.0 + (double)(ujam_mix(ujam_seed ^ "
                   "ujam_mix("
                << base << "ULL + (uint64_t)ujam_i)) % 1000003) / "
                   "1000003.0;\n";
            ++index;
        }
        if (program_.arrays().empty())
            os_ << "    (void)ujam_seed;\n    (void)ujam_i;\n";
        os_ << "}\n\n";
    }

    void
    emitNests()
    {
        std::size_t index = 0;
        for (const LoopNest &nest : program_.nests()) {
            emitNest(nest, index);
            ++index;
        }
    }

    void
    emitRun()
    {
        os_ << "/* Execute every nest, in program order. */\n"
            << "void\n"
            << "ujam_run(void)\n"
            << "{\n";
        for (std::size_t n = 0; n < program_.nests().size(); ++n)
            os_ << "    ujam_nest_" << n << "();\n";
        os_ << "}\n\n";
    }

    void
    emitChecksumApi()
    {
        const std::vector<ArrayDecl> &arrays = program_.arrays();
        os_ << "/* Declared arrays, in declaration (= checksum) "
               "order. */\n";
        if (!arrays.empty()) {
            os_ << "static const struct {\n"
                << "    const char *ujam_name;\n"
                << "    double *ujam_data;\n"
                << "    int64_t ujam_count;\n"
                << "} ujam_arrays[" << arrays.size() << "] = {\n";
            for (const ArrayDecl &decl : arrays) {
                const CArray &layout = layouts_.at(decl.name);
                os_ << "    {\"" << decl.name << "\", "
                    << layout.cName << ", " << layout.total << "},\n";
            }
            os_ << "};\n";
        }
        os_ << "static const int ujam_array_count = " << arrays.size()
            << ";\n\n";

        os_ << "/* Checksum of one array's full storage "
               "(halo included). */\n"
            << "uint64_t\n"
            << "ujam_array_checksum(int ujam_a)\n"
            << "{\n";
        if (arrays.empty()) {
            os_ << "    (void)ujam_a;\n"
                << "    return 14695981039346656037ULL;\n";
        } else {
            os_ << "    if (ujam_a < 0 || ujam_a >= ujam_array_count)\n"
                << "        return 14695981039346656037ULL;\n"
                << "    return ujam_fnv(14695981039346656037ULL,\n"
                << "                    ujam_arrays[ujam_a].ujam_data,\n"
                << "                    ujam_arrays[ujam_a]"
                   ".ujam_count);\n";
        }
        os_ << "}\n\n";

        os_ << "/* Combined checksum over every array, in order. */\n"
            << "uint64_t\n"
            << "ujam_checksum(void)\n"
            << "{\n"
            << "    uint64_t ujam_h = 14695981039346656037ULL;\n";
        if (!arrays.empty()) {
            os_ << "    int ujam_a;\n"
                << "    for (ujam_a = 0; ujam_a < ujam_array_count; "
                   "++ujam_a)\n"
                << "        ujam_h = ujam_fnv(ujam_h, "
                   "ujam_arrays[ujam_a].ujam_data,\n"
                << "                          ujam_arrays[ujam_a]"
                   ".ujam_count);\n";
        }
        os_ << "    return ujam_h;\n"
            << "}\n";
    }

    void
    emitMain()
    {
        os_ << "\nint\n"
            << "main(int argc, char **argv)\n"
            << "{\n"
            << "    uint64_t ujam_seed = " << options_.seed << "ULL;\n"
            << "    int ujam_a;\n"
            << "    if (argc > 1)\n"
            << "        ujam_seed = strtoull(argv[1], NULL, 10);\n"
            << "    ujam_init(ujam_seed);\n"
            << "    ujam_run();\n"
            << "    for (ujam_a = 0; ujam_a < ujam_array_count; "
               "++ujam_a) {\n"
            << "        printf(\"ujam: array %s checksum %016llx\\n\",\n"
            << "               ujam_arrays[ujam_a].ujam_name,\n"
            << "               (unsigned long long)"
               "ujam_array_checksum(ujam_a));\n"
            << "    }\n"
            << "    printf(\"ujam: checksum %016llx\\n\",\n"
            << "           (unsigned long long)ujam_checksum());\n"
            << "    return 0;\n"
            << "}\n";
    }

    // --- nest lowering ----------------------------------------------

    void
    emitNest(const LoopNest &nest, std::size_t index)
    {
        std::vector<std::string> iv_c;
        std::vector<std::string> iv_dsl;
        for (const Loop &loop : nest.loops()) {
            iv_c.push_back(iv_names_.at(loop.iv));
            iv_dsl.push_back(loop.iv);
        }

        os_ << "/* nest " << index << ": "
            << (nest.name().empty() ? "<unnamed>" : nest.name())
            << " (depth " << nest.depth() << ") */\n"
            << "static void\n"
            << "ujam_nest_" << index << "(void)\n"
            << "{\n";
        if (!iv_c.empty()) {
            os_ << "    int64_t ";
            for (std::size_t k = 0; k < iv_c.size(); ++k)
                os_ << (k ? ", " : "") << iv_c[k];
            os_ << ";\n";
        }
        if (nest.depth() == 0) {
            // Degenerate nest: straight-line statements.
            emitStmts(nest.preheader(), iv_c, iv_dsl, 1);
            emitStmts(nest.body(), iv_c, iv_dsl, 1);
            emitStmts(nest.postheader(), iv_c, iv_dsl, 1);
        } else {
            emitLoop(nest, 0, iv_c, iv_dsl);
        }
        os_ << "}\n\n";
    }

    void
    emitLoop(const LoopNest &nest, std::size_t level,
             const std::vector<std::string> &iv_c,
             const std::vector<std::string> &iv_dsl)
    {
        const Loop &loop = nest.loop(level);
        std::int64_t lo = loop.lower.evaluate(params_);
        std::int64_t hi = loop.upper.evaluate(params_);
        bool innermost = (level + 1 == nest.depth());
        int depth = static_cast<int>(level) + 1;
        const std::string &iv = iv_c[level];

        // The preheader runs once per outer iteration, before the
        // innermost loop, with its induction variable at the first
        // value; the postheader after, at the last executed value.
        // Neither runs when the innermost loop is zero-trip.
        if (innermost && !nest.preheader().empty() && lo <= hi) {
            indent(depth);
            os_ << iv << " = " << lo << "; /* preheader: " << iv_dsl[level]
                << " at first iteration */\n";
            emitStmts(nest.preheader(), iv_c, iv_dsl, depth);
        }

        indent(depth);
        os_ << "for (" << iv << " = " << lo << "; " << iv << " <= " << hi
            << "; ";
        if (loop.step == 1)
            os_ << "++" << iv;
        else
            os_ << iv << " += " << loop.step;
        os_ << ") { /* do " << iv_dsl[level] << " = "
            << loop.lower.toString() << ", " << loop.upper.toString();
        if (loop.step != 1)
            os_ << ", " << loop.step;
        os_ << " */\n";

        if (innermost)
            emitStmts(nest.body(), iv_c, iv_dsl, depth + 1);
        else
            emitLoop(nest, level + 1, iv_c, iv_dsl);

        indent(depth);
        os_ << "}\n";

        if (innermost && !nest.postheader().empty() && lo <= hi) {
            std::int64_t last = lo;
            if (hi >= lo)
                last = lo + ((hi - lo) / loop.step) * loop.step;
            indent(depth);
            os_ << iv << " = " << last << "; /* postheader: "
                << iv_dsl[level] << " at last iteration */\n";
            emitStmts(nest.postheader(), iv_c, iv_dsl, depth);
        }
    }

    void
    emitStmts(const std::vector<Stmt> &stmts,
              const std::vector<std::string> &iv_c,
              const std::vector<std::string> &iv_dsl, int depth)
    {
        for (const Stmt &stmt : stmts) {
            if (stmt.isPrefetch()) {
                emitPrefetch(stmt.prefetchRef(), iv_c, iv_dsl, depth);
                continue;
            }
            indent(depth);
            os_ << "/* " << renderStmt(stmt, iv_dsl) << " */\n";
            indent(depth);
            if (stmt.lhsIsArray()) {
                os_ << renderArrayElem(stmt.lhsRef(), iv_c) << " = "
                    << renderExprC(*stmt.rhs(), iv_c) << ";\n";
            } else {
                os_ << scalar_names_.at(stmt.lhsScalar()) << " = "
                    << renderExprC(*stmt.rhs(), iv_c) << ";\n";
            }
        }
    }

    void
    emitPrefetch(const ArrayRef &ref,
                 const std::vector<std::string> &iv_c,
                 const std::vector<std::string> &iv_dsl, int depth)
    {
        const CArray &layout = layouts_.at(ref.array());
        indent(depth);
        os_ << "/* prefetch " << ref.toString(iv_dsl) << " */\n";
        indent(depth);
        os_ << "{\n";
        // One subscript value per dimension; an address outside the
        // halo-padded storage is dropped, like a real non-faulting
        // prefetch instruction (Interpreter::execStmt).
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            indent(depth + 1);
            os_ << "int64_t ujam_s" << d << " = "
                << renderSubscript(ref, d, iv_c) << ";\n";
        }
        indent(depth + 1);
        os_ << "if (";
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            if (d) {
                os_ << " &&\n";
                indent(depth + 2);
            }
            os_ << "ujam_s" << d << " >= " << 1 - ArrayLayout::haloElems
                << " && ujam_s" << d << " <= "
                << layout.extents[d] + ArrayLayout::haloElems;
        }
        os_ << ") {\n";
        indent(depth + 2);
        os_ << "UJAM_PREFETCH(&" << layout.cName << "[";
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            if (d)
                os_ << " + ";
            os_ << "(ujam_s" << d << " + " << ArrayLayout::haloElems - 1
                << ")";
            if (layout.strides[d] != 1)
                os_ << " * " << layout.strides[d];
        }
        os_ << "]);\n";
        indent(depth + 1);
        os_ << "}\n";
        indent(depth);
        os_ << "}\n";
    }

    // --- expression rendering ---------------------------------------

    /** @return The affine subscript of dimension d as C source. */
    std::string
    renderSubscript(const ArrayRef &ref, std::size_t d,
                    const std::vector<std::string> &iv_c) const
    {
        std::ostringstream out;
        out << ref.offset()[d];
        const IntVector &row = ref.row(d);
        for (std::size_t k = 0; k < row.size(); ++k)
            appendTerm(out, row[k], iv_c[k]);
        return out.str();
    }

    /** @return "name[flat index]" with the linearized halo-shifted
     * index: sum over d of (sub_d - 1 + halo) * stride_d, folded into
     * one constant plus one term per loop. */
    std::string
    renderArrayElem(const ArrayRef &ref,
                    const std::vector<std::string> &iv_c) const
    {
        const CArray &layout = layouts_.at(ref.array());
        std::int64_t base = 0;
        std::vector<std::int64_t> coeff(iv_c.size(), 0);
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            base += (ref.offset()[d] - 1 + ArrayLayout::haloElems) *
                    layout.strides[d];
            const IntVector &row = ref.row(d);
            for (std::size_t k = 0; k < row.size(); ++k)
                coeff[k] += row[k] * layout.strides[d];
        }
        std::ostringstream out;
        out << layout.cName << "[" << base;
        for (std::size_t k = 0; k < coeff.size(); ++k)
            appendTerm(out, coeff[k], iv_c[k]);
        out << "]";
        return out.str();
    }

    static void
    appendTerm(std::ostringstream &out, std::int64_t coeff,
               const std::string &iv)
    {
        if (coeff == 0)
            return;
        out << (coeff > 0 ? " + " : " - ");
        std::int64_t mag = coeff > 0 ? coeff : -coeff;
        if (mag != 1)
            out << mag << "*";
        out << iv;
    }

    std::string
    renderExprC(const Expr &expr,
                const std::vector<std::string> &iv_c) const
    {
        switch (expr.kind()) {
          case Expr::Kind::Constant:
            return cDouble(expr.constantValue());
          case Expr::Kind::Scalar:
            return scalar_names_.at(expr.scalarName());
          case Expr::Kind::ArrayRead:
            return renderArrayElem(expr.ref(), iv_c);
          case Expr::Kind::Binary:
            return concat("(", renderExprC(*expr.lhs(), iv_c), " ",
                          binOpSpelling(expr.op()), " ",
                          renderExprC(*expr.rhs(), iv_c), ")");
        }
        panic("unknown expression kind");
    }

    void
    indent(int depth)
    {
        for (int i = 0; i < depth; ++i)
            os_ << "    ";
    }

    const Program &program_;
    const CodegenOptions &options_;
    ParamBindings params_;
    NameTable names_;
    std::map<std::string, CArray> layouts_;
    std::map<std::string, std::string> scalar_names_;
    std::vector<std::string> scalar_order_;
    std::map<std::string, std::string> iv_names_;
    std::ostringstream os_;
    bool boundsProven_ = false;
};

} // namespace

CodegenUnit
emitCProgram(const Program &program, const CodegenOptions &options)
{
    Emitter emitter(program, options);
    return emitter.emit();
}

} // namespace ujam
