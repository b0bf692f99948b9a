// Error-handling primitives shared across the library.
//
// We favour exceptions for precondition violations in the public API
// (callers can recover / report) and use NADMM_ASSERT for internal
// invariants that indicate a library bug.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace nadmm {

/// Exception thrown when a public-API precondition is violated.
class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when a runtime operation cannot proceed
/// (I/O failure, dimension mismatch discovered mid-computation, ...).
class RuntimeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A failed NADMM_CHECK. what() names the expression and its source
/// location before the message, for library callers; reason() is the
/// message alone (the expression when there is none), which is what a
/// user who typed the bad value needs to read.
class CheckFailure : public InvalidArgument {
 public:
  CheckFailure(const std::string& what, std::string reason)
      : InvalidArgument(what), reason_(std::move(reason)) {}
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace detail {

[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "NADMM_CHECK failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckFailure(os.str(), msg.empty() ? std::string(expr) : msg);
}

[[noreturn]] inline void throw_assert_failure(const char* expr, const char* file,
                                              int line) {
  std::ostringstream os;
  os << "internal invariant violated: (" << expr << ") at " << file << ':'
     << line << " — please report this as a bug";
  throw RuntimeError(os.str());
}

}  // namespace detail
}  // namespace nadmm

/// Validate a public-API precondition; throws nadmm::CheckFailure, an
/// nadmm::InvalidArgument.
#define NADMM_CHECK(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::nadmm::detail::throw_check_failure(#expr, __FILE__, __LINE__, msg); \
    }                                                                       \
  } while (false)

/// Internal invariant check; throws nadmm::RuntimeError. Kept on in release
/// builds: the checks guard O(1) conditions only.
#define NADMM_ASSERT(expr)                                               \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::nadmm::detail::throw_assert_failure(#expr, __FILE__, __LINE__);  \
    }                                                                    \
  } while (false)
