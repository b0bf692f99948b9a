#include "serve/arrival.hpp"

#include <cmath>
#include <cstdio>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace nadmm::serve {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Split `spec` on ':' into at most `max_fields + 1` tokens (kind first).
std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (true) {
    const auto colon = spec.find(':', begin);
    if (colon == std::string::npos) {
      out.push_back(spec.substr(begin));
      return out;
    }
    out.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }
}

double parse_field(const std::string& spec, const std::vector<std::string>& f,
                   std::size_t i, double fallback) {
  if (i >= f.size()) return fallback;
  double v = 0.0;
  if (!parse_number(f[i], v) || !std::isfinite(v)) {
    throw InvalidArgument("arrival spec '" + spec + "': malformed number '" +
                          f[i] + "'");
  }
  return v;
}

}  // namespace

PoissonArrival::PoissonArrival(double rate) : rate_(rate) {
  NADMM_CHECK(rate > 0.0, "poisson arrival: rate must be positive");
}

std::string PoissonArrival::name() const { return "poisson:" + fmt(rate_); }

DiurnalArrival::DiurnalArrival(double mean, double amplitude, double period)
    : mean_(mean), amplitude_(amplitude), period_(period) {
  NADMM_CHECK(mean > 0.0, "diurnal arrival: mean rate must be positive");
  NADMM_CHECK(amplitude >= 0.0 && amplitude <= 1.0,
              "diurnal arrival: amplitude must be in [0, 1]");
  NADMM_CHECK(period > 0.0, "diurnal arrival: period must be positive");
}

std::string DiurnalArrival::name() const {
  return "diurnal:" + fmt(mean_) + ':' + fmt(amplitude_) + ':' + fmt(period_);
}

double DiurnalArrival::rate_at(double t) const {
  return mean_ * (1.0 + amplitude_ * std::sin(kTwoPi * t / period_));
}

BurstyArrival::BurstyArrival(double base, double burst, double period,
                             double duty)
    : base_(base), burst_(burst), period_(period), duty_(duty) {
  NADMM_CHECK(base > 0.0, "bursty arrival: base rate must be positive");
  NADMM_CHECK(burst >= base,
              "bursty arrival: burst rate must be >= base rate");
  NADMM_CHECK(period > 0.0, "bursty arrival: period must be positive");
  NADMM_CHECK(duty > 0.0 && duty < 1.0,
              "bursty arrival: duty must be in (0, 1)");
}

std::string BurstyArrival::name() const {
  return "bursty:" + fmt(base_) + ':' + fmt(burst_) + ':' + fmt(period_) +
         ':' + fmt(duty_);
}

double BurstyArrival::rate_at(double t) const {
  const double phase = t - period_ * std::floor(t / period_);
  return phase < duty_ * period_ ? burst_ : base_;
}

std::unique_ptr<ArrivalModel> make_arrival(const std::string& spec) {
  NADMM_CHECK(!spec.empty(), "arrival spec must not be empty");
  const auto f = split_spec(spec);
  const std::string& kind = f[0];
  if (kind == "poisson") {
    NADMM_CHECK(f.size() <= 2, "arrival spec '" + spec + "': too many fields");
    return std::make_unique<PoissonArrival>(parse_field(spec, f, 1, 1000.0));
  }
  if (kind == "diurnal") {
    NADMM_CHECK(f.size() <= 4, "arrival spec '" + spec + "': too many fields");
    return std::make_unique<DiurnalArrival>(parse_field(spec, f, 1, 1000.0),
                                            parse_field(spec, f, 2, 0.8),
                                            parse_field(spec, f, 3, 1.0));
  }
  if (kind == "bursty") {
    NADMM_CHECK(f.size() <= 5, "arrival spec '" + spec + "': too many fields");
    return std::make_unique<BurstyArrival>(parse_field(spec, f, 1, 400.0),
                                           parse_field(spec, f, 2, 4000.0),
                                           parse_field(spec, f, 3, 0.5),
                                           parse_field(spec, f, 4, 0.2));
  }
  throw InvalidArgument("arrival spec '" + spec +
                        "': unknown kind '" + kind +
                        "' (expected poisson|diurnal|bursty)");
}

std::vector<Request> make_request_stream(const ArrivalModel& model,
                                         std::size_t count,
                                         std::size_t pool_size,
                                         std::uint64_t seed) {
  NADMM_CHECK(count == 0 || pool_size > 0,
              "request stream needs a non-empty pool");
  std::vector<Request> out;
  out.reserve(count);
  const double peak = model.peak_rate();
  NADMM_CHECK(peak > 0.0, "arrival model peak rate must be positive");
  Rng rng(seed);
  double t = 0.0;
  std::uint64_t id = 0;
  while (out.size() < count) {
    // Candidate gap at the envelope rate; accept with λ(t)/peak (thinning),
    // so the accepted stream is a non-homogeneous Poisson process.
    double u = 1.0 - rng.uniform();  // (0, 1]
    t += -std::log(u) / peak;
    if (rng.uniform() * peak <= model.rate_at(t)) {
      Request r;
      r.id = id++;
      r.arrival_s = t;
      r.row = static_cast<std::size_t>(rng.uniform_index(pool_size));
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace nadmm::serve
