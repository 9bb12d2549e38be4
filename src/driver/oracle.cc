#include "driver/oracle.hh"

#include "support/diagnostics.hh"
#include "support/rng.hh"

namespace ujam
{

namespace
{

/** @return context's declarations and defaults around nests. */
Program
withNests(const Program &context, const std::vector<LoopNest> &nests)
{
    Program program = context;
    program.nests().clear();
    for (const LoopNest &nest : nests)
        program.addNest(nest);
    return program;
}

} // namespace

OracleRun::OracleRun(const Program &context,
                     const std::vector<LoopNest> &nests,
                     const OracleConfig &config, std::uint64_t stream,
                     std::size_t trial)
    : program_(withNests(context, nests)), trial_(trial)
{
    const std::size_t trials = config.trials > 0 ? config.trials : 1;
    seed_ = Rng::deriveStream(config.seed, stream * trials + trial);
    interpret(config);
}

OracleRun::OracleRun(const Program &context,
                     const std::vector<LoopNest> &nests,
                     const OracleConfig &config, const OracleRun &reference)
    : program_(withNests(context, nests)), trial_(reference.trial_),
      seed_(reference.seed_), inputs_(reference.inputs_)
{
    interpret(config);
}

void
OracleRun::interpret(const OracleConfig &config)
{
    try {
        interpreter_.emplace(program_, config.params);
        if (inputs_) {
            interpreter_->loadArrayImage(*inputs_);
        } else {
            interpreter_->seedArrays(seed_);
            inputs_ = std::make_shared<const Interpreter::ArrayImage>(
                interpreter_->arrayImage());
        }
        interpreter_->run();
    } catch (const FatalError &err) {
        // E.g. transformed code touched past the guard halo (a
        // miscompile), or an array too large to interpret.
        failure_ = concat("trial ", trial_, ": execution failed: ",
                          err.what());
    } catch (const PanicError &err) {
        failure_ = concat("trial ", trial_, ": execution failed: ",
                          err.what());
    }
    if (!failure_.empty())
        interpreter_.reset();
}

std::string
compareOracleRuns(const OracleRun &reference, const OracleRun &candidate,
                  bool bitExact, const OracleConfig &config)
{
    if (!reference.failure_.empty())
        return reference.failure_;
    if (!candidate.failure_.empty())
        return candidate.failure_;
    std::string diff = reference.interpreter_->compareArrays(
        *candidate.interpreter_, bitExact ? 0.0 : config.tolerance);
    if (diff.empty())
        return diff;
    return concat("trial ", candidate.trial_, " (seed ", candidate.seed_,
                  "): ", diff);
}

OracleVerdict
verifyEquivalence(const Program &context,
                  const std::vector<LoopNest> &before,
                  const std::vector<LoopNest> &after, bool bitExact,
                  const OracleConfig &config, std::uint64_t stream)
{
    const std::size_t trials = config.trials > 0 ? config.trials : 1;
    for (std::size_t t = 0; t < trials; ++t) {
        OracleRun reference(context, before, config, stream, t);
        if (!reference.failure().empty())
            return {false, reference.failure()};
        OracleRun candidate(context, after, config, reference);
        std::string mismatch =
            compareOracleRuns(reference, candidate, bitExact, config);
        if (!mismatch.empty())
            return {false, mismatch};
    }
    return {};
}

OracleVerdict
verifyPrograms(const Program &before, const Program &after, bool bitExact,
               const OracleConfig &config, std::uint64_t stream)
{
    return verifyEquivalence(before, before.nests(), after.nests(),
                             bitExact, config, stream);
}

} // namespace ujam
