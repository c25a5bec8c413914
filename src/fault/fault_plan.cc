#include "fault/fault_plan.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace streamkc {
namespace {

// Splits on `sep`, keeping empty pieces (they are parse errors upstream).
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool ParseProb(const std::string& v, double* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double d = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  if (d < 0.0 || d > 1.0) return false;
  *out = d;
  return true;
}

bool ParseU64(const std::string& v, uint64_t* out) {
  if (v.empty() || v[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  uint64_t u = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  *out = u;
  return true;
}

// "A:B" / "A@B" pair of unsigned integers.
bool ParsePair(const std::string& v, char sep, uint64_t* a, uint64_t* b) {
  size_t pos = v.find(sep);
  if (pos == std::string::npos) return false;
  return ParseU64(v.substr(0, pos), a) && ParseU64(v.substr(pos + 1), b);
}

// "P:NS" probability:nanoseconds pair.
bool ParseProbNs(const std::string& v, double* p, uint64_t* ns) {
  size_t pos = v.find(':');
  if (pos == std::string::npos) return false;
  return ParseProb(v.substr(0, pos), p) && ParseU64(v.substr(pos + 1), ns);
}

std::string TrimFloat(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", d);
  return buf;
}

}  // namespace

std::string FaultPlan::ToSpec() const {
  std::string s = "seed=" + std::to_string(seed);
  if (read_error_rate > 0) s += ",read-error=" + TrimFloat(read_error_rate);
  if (duplicate_rate > 0) s += ",dup=" + TrimFloat(duplicate_rate);
  if (reorder_window > 0) s += ",reorder=" + std::to_string(reorder_window);
  if (garbage_rate > 0) s += ",garbage=" + TrimFloat(garbage_rate);
  if (push_delay_rate > 0) {
    s += ",push-delay=" + TrimFloat(push_delay_rate) + ":" +
         std::to_string(push_delay_ns);
  }
  if (slow_shard != kNoShard) {
    s += ",slow-shard=" + std::to_string(slow_shard) + ":" +
         std::to_string(slow_shard_ns);
  }
  if (kill_shard != kNoShard) {
    s += ",kill-shard=" + std::to_string(kill_shard) + "@" +
         std::to_string(kill_after_batches);
  }
  if (corrupt_merge_shard != kNoShard) {
    s += ",corrupt-merge=" + std::to_string(corrupt_merge_shard);
  }
  if (corrupt_frame_shard != kNoShard) {
    s += ",corrupt-frame=" + std::to_string(corrupt_frame_shard);
  }
  return s;
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  *plan = FaultPlan();
  auto fail = [&](const std::string& clause, const char* why) {
    if (error != nullptr) {
      *error = "bad fault-plan clause '" + clause + "': " + why;
    }
    return false;
  };
  if (spec.empty()) return fail("", "empty spec");
  for (const std::string& clause : Split(spec, ',')) {
    size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail(clause, "expected key=value");
    }
    std::string key = clause.substr(0, eq);
    std::string value = clause.substr(eq + 1);
    uint64_t u = 0;
    if (key == "seed") {
      if (!ParseU64(value, &plan->seed)) return fail(clause, "bad integer");
    } else if (key == "read-error") {
      if (!ParseProb(value, &plan->read_error_rate)) {
        return fail(clause, "probability in [0,1] required");
      }
    } else if (key == "dup") {
      if (!ParseProb(value, &plan->duplicate_rate)) {
        return fail(clause, "probability in [0,1] required");
      }
    } else if (key == "reorder") {
      if (!ParseU64(value, &u) || u > (1u << 24)) {
        return fail(clause, "window size required");
      }
      plan->reorder_window = static_cast<uint32_t>(u);
    } else if (key == "garbage") {
      if (!ParseProb(value, &plan->garbage_rate)) {
        return fail(clause, "probability in [0,1] required");
      }
    } else if (key == "push-delay") {
      if (!ParseProbNs(value, &plan->push_delay_rate, &plan->push_delay_ns)) {
        return fail(clause, "expected P:NANOS");
      }
    } else if (key == "slow-shard") {
      uint64_t shard = 0;
      if (!ParsePair(value, ':', &shard, &plan->slow_shard_ns) ||
          shard >= kNoShard) {
        return fail(clause, "expected SHARD:NANOS");
      }
      plan->slow_shard = static_cast<uint32_t>(shard);
    } else if (key == "kill-shard") {
      uint64_t shard = 0;
      if (!ParsePair(value, '@', &shard, &plan->kill_after_batches) ||
          shard >= kNoShard) {
        return fail(clause, "expected SHARD@BATCHES");
      }
      plan->kill_shard = static_cast<uint32_t>(shard);
    } else if (key == "corrupt-merge") {
      if (!ParseU64(value, &u) || u >= kNoShard) {
        return fail(clause, "shard id required");
      }
      plan->corrupt_merge_shard = static_cast<uint32_t>(u);
    } else if (key == "corrupt-frame") {
      if (!ParseU64(value, &u) || u >= kNoShard) {
        return fail(clause, "shard id required");
      }
      plan->corrupt_frame_shard = static_cast<uint32_t>(u);
    } else {
      return fail(clause, "unknown key");
    }
  }
  return true;
}

FaultPlan FaultPlan::ParseOrDie(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  if (!Parse(spec, &plan, &error)) {
    std::fprintf(stderr, "FaultPlan::ParseOrDie: %s\n", error.c_str());
    std::abort();
  }
  return plan;
}

}  // namespace streamkc
