#include "serve/batching.hpp"

#include <cmath>
#include <cstdio>

#include "support/check.hpp"
#include "support/cli.hpp"

namespace nadmm::serve {

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::size_t parse_batch(const std::string& spec, const std::string& field) {
  std::size_t v = 0;
  if (!parse_number(field, v)) {
    throw InvalidArgument("batch spec '" + spec + "': malformed batch size '" +
                          field + "'");
  }
  NADMM_CHECK(v > 0, "batch size must be positive");
  return v;
}

double parse_delay(const std::string& spec, const std::string& field) {
  double v = 0.0;
  if (!parse_number(field, v) || !std::isfinite(v)) {
    throw InvalidArgument("batch spec '" + spec + "': malformed deadline '" +
                          field + "'");
  }
  return v;
}

}  // namespace

MaxSizePolicy::MaxSizePolicy(std::size_t batch) : batch_(batch) {
  NADMM_CHECK(batch >= 1, "size policy: batch must be >= 1");
}

std::string MaxSizePolicy::name() const {
  return "size:" + std::to_string(batch_);
}

DeadlinePolicy::DeadlinePolicy(std::size_t batch, double delay_s)
    : batch_(batch), delay_s_(delay_s) {
  NADMM_CHECK(batch >= 1, "deadline policy: batch must be >= 1");
  NADMM_CHECK(delay_s >= 0.0, "deadline policy: delay must be >= 0 seconds");
}

std::string DeadlinePolicy::name() const {
  return "deadline:" + std::to_string(batch_) + ':' + fmt(delay_s_);
}

std::unique_ptr<BatchPolicy> make_batch_policy(const std::string& spec) {
  NADMM_CHECK(!spec.empty(), "batch spec must not be empty");
  if (spec == "immediate") return std::make_unique<ImmediatePolicy>();
  const auto first = spec.find(':');
  const std::string kind = spec.substr(0, first);
  if (kind == "size") {
    NADMM_CHECK(first != std::string::npos, "batch spec '" + spec +
                                                "': size needs a batch size "
                                                "(size:<B>)");
    return std::make_unique<MaxSizePolicy>(
        parse_batch(spec, spec.substr(first + 1)));
  }
  if (kind == "deadline") {
    NADMM_CHECK(first != std::string::npos,
                "batch spec '" + spec +
                    "': deadline needs <B>:<seconds> (deadline:16:0.005)");
    const std::string rest = spec.substr(first + 1);
    const auto second = rest.find(':');
    NADMM_CHECK(second != std::string::npos,
                "batch spec '" + spec +
                    "': deadline needs <B>:<seconds> (deadline:16:0.005)");
    return std::make_unique<DeadlinePolicy>(
        parse_batch(spec, rest.substr(0, second)),
        parse_delay(spec, rest.substr(second + 1)));
  }
  throw InvalidArgument("batch spec '" + spec + "': unknown kind '" + kind +
                        "' (expected immediate|size:<B>|deadline:<B>:<T>)");
}

}  // namespace nadmm::serve
