/**
 * @file
 * Data-dependence representation.
 *
 * Dependences connect two accesses of a nest (by ordinal position in
 * LoopNest::accesses()) and carry a per-loop direction vector plus,
 * when every component is known exactly, a distance vector. Input
 * (read-read) dependences are first-class: the paper's headline
 * measurement is how much of a dependence graph they occupy.
 */

#ifndef UJAM_DEPS_DEPENDENCE_HH
#define UJAM_DEPS_DEPENDENCE_HH

#include <string>
#include <vector>

#include "linalg/int_vector.hh"

namespace ujam
{

/** Dependence kind, by the access types of source and sink. */
enum class DepKind
{
    Flow,   //!< write -> read (true)
    Anti,   //!< read -> write
    Output, //!< write -> write
    Input   //!< read -> read
};

/** @return "flow"/"anti"/"output"/"input". */
const char *depKindName(DepKind kind);

/** Per-loop dependence direction. */
enum class DepDir
{
    Lt,   //!< source iteration precedes sink ('<')
    Eq,   //!< same iteration ('=')
    Gt,   //!< source iteration follows sink ('>')
    Star  //!< unknown / all directions ('*')
};

/** @return '<', '=', '>' or '*'. */
char depDirSymbol(DepDir dir);

/**
 * One dependence edge.
 */
struct Dependence
{
    DepKind kind = DepKind::Input;
    std::size_t src = 0;  //!< source access ordinal (executes first)
    std::size_t dst = 0;  //!< sink access ordinal
    std::vector<DepDir> dirs; //!< direction per loop, outermost first

    /**
     * True when every direction component resolved to an exact
     * iteration distance; then distance holds sink minus source
     * iteration. Star components in dirs make this false only if no
     * representative could be chosen; a representative with Star
     * components set to 0 (or 1 for self dependences) is still
     * recorded with representative == true.
     */
    bool hasDistance = false;
    bool representative = false; //!< distance has arbitrary Star fills
    IntVector distance;

    /**
     * True when the edge arises from a recognized reduction statement
     * (e.g. the a(j) += ... self cycle); such edges do not constrain
     * unroll-and-jam because reduction reassociation is permitted.
     */
    bool reduction = false;

    /** @return True iff any direction is not Eq. */
    bool loopCarried() const;

    /** @return e.g. "flow (<,=) d=(1, 0)". */
    std::string toString() const;
};

} // namespace ujam

#endif // UJAM_DEPS_DEPENDENCE_HH
