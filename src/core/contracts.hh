/**
 * @file
 * Contract macros: the always-on invariant layer.
 *
 * Three macros, one failure path:
 *
 *  - POLCA_ASSERT(cond, msg...)  — internal invariant; a failure means
 *    the simulator itself is buggy (heap order violated, conserved
 *    quantity went negative).  Always compiled in.
 *  - POLCA_CHECK(cond, msg...)   — precondition on caller-supplied
 *    input (scheduling into the past, empty callback, out-of-range
 *    config).  Always compiled in.
 *  - POLCA_DCHECK(cond, msg...)  — expensive or hot-path invariant;
 *    compiled out under NDEBUG (Release / RelWithDebInfo), so it may
 *    sit inside per-event code without costing the hot path anything.
 *
 * Message arguments are streamed gem5-style, comma-separated:
 *
 *     POLCA_CHECK(when >= now_, "scheduling into the past: when=",
 *                 when, " now=", now_);
 *
 * On failure a report is built containing the macro name, the failed
 * condition text, file:line, the enclosing function, the streamed
 * message, and — when a Simulation is alive on the calling thread —
 * the current simulated time ("[t=12.000000s]"), then handed to the
 * installed ContractFailureHandler.  The default handler prints the
 * report to stderr and aborts (so a debugger or core dump captures
 * state, same contract as sim::panic).  Tests install
 * throwingContractHandler via ScopedContractHandler to turn failures
 * into catchable ContractError exceptions instead of process death.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace polca::core {

/** Everything known about one contract failure. */
struct ContractViolation
{
    const char *kind;       ///< "POLCA_ASSERT" / "POLCA_CHECK" / ...
    const char *condition;  ///< stringified condition text
    const char *file;
    int line;
    const char *function;
    std::string message;    ///< streamed user message; may be empty

    /**
     * Full report text, e.g.
     * "[t=12.000000s] POLCA_CHECK failed: when >= now_ (scheduling
     *  into the past: when=5 now=10) at src/sim/event_queue.cc:93 in
     *  schedule".  The time prefix appears only while a Simulation is
     *  alive on the calling thread.
     */
    std::string report() const;
};

/**
 * Called with the violation; returning is not an option — a handler
 * that neither aborts nor throws is followed by std::abort().
 */
using ContractFailureHandler = void (*)(const ContractViolation &);

/** Install @p handler (nullptr restores the default). @return the
 *  previously installed handler. */
ContractFailureHandler
setContractFailureHandler(ContractFailureHandler handler);

/** Thrown by throwingContractHandler; what() is the full report. */
class ContractError : public std::logic_error
{
  public:
    explicit ContractError(const ContractViolation &violation)
        : std::logic_error(violation.report())
    {}
};

/** Handler that throws ContractError instead of aborting; lets tests
 *  exercise contracts without forking a death-test child. */
[[noreturn]] void throwingContractHandler(const ContractViolation &v);

/** RAII: install a handler for a scope, restore the previous one. */
class ScopedContractHandler
{
  public:
    explicit ScopedContractHandler(ContractFailureHandler handler)
        : previous_(setContractFailureHandler(handler))
    {}
    ~ScopedContractHandler() { setContractFailureHandler(previous_); }
    ScopedContractHandler(const ScopedContractHandler &) = delete;
    ScopedContractHandler &operator=(const ScopedContractHandler &) =
        delete;

  private:
    ContractFailureHandler previous_;
};

/** Build the violation and invoke the installed handler.  Never
 *  returns: a handler that returns is followed by std::abort(). */
[[noreturn]] void contractFail(const char *kind, const char *condition,
                               const char *file, int line,
                               const char *function,
                               std::string message);

/** Bitwise equality of two doubles, for cache cross-checks: a cached
 *  value must be the very bits a fresh evaluation returns, not merely
 *  close to them. */
[[nodiscard]] inline bool
bitwiseEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

namespace detail {

/** Stream the message arguments; empty pack -> empty string. */
template <typename... Args>
std::string
contractMessage(Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return {};
    } else {
        std::ostringstream oss;
        (oss << ... << std::forward<Args>(args));
        return oss.str();
    }
}

} // namespace detail

} // namespace polca::core

#define POLCA_CONTRACT_FAIL_(kind, cond, ...)                          \
    ::polca::core::contractFail(                                       \
        kind, cond, __FILE__, __LINE__, __func__,                      \
        ::polca::core::detail::contractMessage(__VA_ARGS__))

/** Internal invariant; always on.  Failure == simulator bug. */
#define POLCA_ASSERT(cond, ...)                                        \
    ((cond) ? static_cast<void>(0)                                     \
            : POLCA_CONTRACT_FAIL_("POLCA_ASSERT", #cond, __VA_ARGS__))

/** Caller-input precondition; always on. */
#define POLCA_CHECK(cond, ...)                                         \
    ((cond) ? static_cast<void>(0)                                     \
            : POLCA_CONTRACT_FAIL_("POLCA_CHECK", #cond, __VA_ARGS__))

/** Debug-only invariant: free in Release (NDEBUG) builds.  The
 *  condition is parsed but never evaluated when compiled out, so
 *  variables it names do not become "unused". */
#ifdef NDEBUG
#define POLCA_DCHECK(cond, ...)                                        \
    static_cast<void>(sizeof(!(cond)))
#else
#define POLCA_DCHECK(cond, ...)                                        \
    ((cond) ? static_cast<void>(0)                                     \
            : POLCA_CONTRACT_FAIL_("POLCA_DCHECK", #cond, __VA_ARGS__))
#endif
