/**
 * @file
 * Error-reporting and logging primitives.
 *
 * The conventions follow the gem5 distinction:
 *  - fatal():  the situation is the caller's fault (bad configuration,
 *              invalid argument).  Throws FatalError so library users and
 *              tests can recover.
 *  - panic():  an internal invariant of this library was violated (a bug
 *              in mcdvfs itself).  Aborts the process.
 *  - warn()/inform(): advisory messages on stderr.
 */

#ifndef MCDVFS_COMMON_LOGGING_HH
#define MCDVFS_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace mcdvfs
{

/** Exception thrown by fatal() for user-correctable errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Severity of one advisory message (ordered, least severe first). */
enum class LogLevel
{
    Debug = 0,
    Info,
    Warn,
    Error,
    Silent,  ///< Threshold-only value: suppresses every message.
};

/**
 * Sink receiving every advisory message that passes the level filter.
 * It may be called from several threads at once (a daemon's warm
 * start warns about rejected snapshots from its pool workers), so it
 * must synchronize whatever it writes to; the default sink writes to
 * stderr.
 */
using LogSink = void (*)(LogLevel, const std::string &);

/** Current advisory threshold (messages below it are dropped). */
LogLevel logLevel();

/** Set the advisory threshold (thread-safe). */
void setLogLevel(LogLevel level);

/**
 * Parse a threshold name: debug, info, warn, error, or silent.
 * @throws FatalError on anything else.
 */
LogLevel logLevelFromString(const std::string &text);

/**
 * Install a message sink, returning the previous one (nullptr means
 * the built-in stderr sink was active).  Pass nullptr to restore the
 * stderr sink.
 */
LogSink setLogSink(LogSink sink);

namespace detail
{

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * Observer called once per advisory message, before level filtering,
 * so metrics can count emissions even when the threshold hides them.
 * Installed by the obs layer; not part of the public API.
 */
using LogCounterHook = void (*)(LogLevel);
void setLogCounterHook(LogCounterHook hook);

} // namespace detail

/**
 * Report a user-correctable error (bad configuration or argument).
 *
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Emit a warning to stderr (does not stop execution). */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Emit an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort on an internal invariant violation (a bug in mcdvfs itself).
 * Use MCDVFS_PANIC so the failing file/line are captured.
 */
#define MCDVFS_PANIC(...)                                                   \
    ::mcdvfs::detail::panicImpl(__FILE__, __LINE__,                         \
                                ::mcdvfs::detail::concat(__VA_ARGS__))

/** Assert an internal invariant; panics with the condition text. */
#define MCDVFS_ASSERT(cond, ...)                                            \
    do {                                                                    \
        if (!(cond)) {                                                      \
            MCDVFS_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);    \
        }                                                                   \
    } while (0)

/**
 * Debug-build-only assertion for hot-path invariants (bounds checks in
 * grid accessors and kernels).  Compiles to nothing under NDEBUG so
 * release builds pay no cost; use MCDVFS_ASSERT where the check must
 * survive into release builds.
 */
#ifdef NDEBUG
#define MCDVFS_DEBUG_ASSERT(cond, ...)                                      \
    do {                                                                    \
    } while (0)
#else
#define MCDVFS_DEBUG_ASSERT(cond, ...) MCDVFS_ASSERT(cond, ##__VA_ARGS__)
#endif

} // namespace mcdvfs

#endif // MCDVFS_COMMON_LOGGING_HH
