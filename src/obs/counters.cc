#include "obs/counters.h"

#include <string>

namespace msq::obs {

const CounterField* FindCounterByMetric(std::string_view metric) {
  for (const CounterField& f : kCounterFields) {
    if (f.metric == metric) return &f;
  }
  return nullptr;
}

void AppendCounterJson(std::string* out, const CounterSet& counters) {
  for (const CounterField& f : kCounterFields) {
    *out += ",\"";
    *out += f.name;
    *out += "\":";
    *out += std::to_string(counters.*f.member);
  }
}

std::string FirstCounterMismatch(const CounterSet& got, const CounterSet& want,
                                 std::string_view prefix) {
  for (const CounterField& f : kCounterFields) {
    if (got.*f.member == want.*f.member) continue;
    std::string out(prefix);
    out += f.name;
    out += ": " + std::to_string(got.*f.member) + " != expected " +
           std::to_string(want.*f.member);
    return out;
  }
  return std::string();
}

}  // namespace msq::obs
