// Error handling primitives for mgpu-sw.
//
// The library uses exceptions for unrecoverable misuse (bad arguments,
// protocol violations) and MGPUSW_CHECK-style macros for internal
// invariants. Hot loops never throw; all validation happens at API
// boundaries before parallel execution starts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mgpusw {

/// Base class for all mgpu-sw exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller passes arguments that violate a documented
/// precondition (negative length, zero devices, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown on I/O failures (FASTA parsing, socket errors, ...).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Thrown when an internal invariant is violated; indicates a bug in the
/// library itself rather than in calling code.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

// ---------------------------------------------------------------------------
// Failure taxonomy for the recovery layer (core/recovery.hpp).
//
// A multi-hour multi-device run can die in ways that a restart from the
// last checkpoint cures (a dropped border chunk, a comm timeout, a
// one-shot kernel fault) and in ways it cannot (a device that is gone for
// good must first leave the pool). The classes below let the recovery
// driver tell these apart without string-matching error messages.

/// An error a restart may cure without changing the device pool: border
/// traffic lost or corrupted, a comm timeout, an injected one-shot
/// kernel failure.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what) : Error(what) {}
};

/// Violation of the border-chunk sequencing protocol: the upstream
/// neighbour died mid-stream, skipped or corrupted a chunk. Transient
/// from the observing device's point of view — a restart re-establishes
/// the stream.
class ProtocolError : public TransientError {
 public:
  explicit ProtocolError(const std::string& what) : TransientError(what) {}
};

/// Cooperative interruption: a runner observed EngineConfig::stop_request
/// raised at a scheduling-unit boundary, which is how a job is cancelled.
/// Everything completed before the stop is intact, so a restart from the
/// newest checkpoint would be safe — hence transient; run_with_recovery
/// still rethrows it, because the caller asked for the cancel.
class InterruptedError : public TransientError {
 public:
  explicit InterruptedError(const std::string& what)
      : TransientError(what) {}
};

/// A device is gone for good (death fault, exhausted memory arena). The
/// recovery layer must remove it from the pool before restarting.
class DeviceLostError : public Error {
 public:
  explicit DeviceLostError(const std::string& what) : Error(what) {}
};

/// How the recovery layer reacts to a failed run.
enum class ErrorSeverity {
  kTransient,   // retry on the same device pool
  kDeviceLoss,  // drop the dead device, re-plan, retry
  kFatal,       // misuse or a library bug: rethrow, never retry
};

/// Classifies an in-flight exception for the recovery driver. IoError is
/// transient here because during a run the only I/O is channel traffic
/// (sockets, checkpoint spill files); argument and invariant violations
/// are fatal.
[[nodiscard]] inline ErrorSeverity classify_error(
    const std::exception_ptr& error) {
  if (!error) return ErrorSeverity::kFatal;
  try {
    std::rethrow_exception(error);
  } catch (const DeviceLostError&) {
    return ErrorSeverity::kDeviceLoss;
  } catch (const TransientError&) {
    return ErrorSeverity::kTransient;
  } catch (const IoError&) {
    return ErrorSeverity::kTransient;
  } catch (...) {
    return ErrorSeverity::kFatal;
  }
}

namespace detail {

[[noreturn]] inline void check_failed(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace mgpusw

/// Internal invariant check. Active in all build types: the cost is
/// negligible outside inner kernels, and kernels deliberately avoid it.
#define MGPUSW_CHECK(expr)                                                 \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::mgpusw::detail::check_failed("MGPUSW_CHECK", #expr, __FILE__,      \
                                     __LINE__, "");                        \
    }                                                                      \
  } while (0)

#define MGPUSW_CHECK_MSG(expr, msg)                                        \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream mgpusw_os_;                                       \
      mgpusw_os_ << msg;                                                   \
      ::mgpusw::detail::check_failed("MGPUSW_CHECK", #expr, __FILE__,      \
                                     __LINE__, mgpusw_os_.str());          \
    }                                                                      \
  } while (0)

/// Precondition check at public API boundaries; throws InvalidArgument.
#define MGPUSW_REQUIRE(expr, msg)                                          \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream mgpusw_os_;                                       \
      mgpusw_os_ << "precondition (" << #expr << ") violated: " << msg;    \
      throw ::mgpusw::InvalidArgument(mgpusw_os_.str());                   \
    }                                                                      \
  } while (0)
