#include "exec/exec_control.h"

#include "common/string_util.h"

namespace restore {

std::string ExecStats::ToString() const {
  return StrFormat(
      "parse=%.3fms plan=%.3fms selection=%.3fms sample=%.3fms "
      "aggregate=%.3fms "
      "tuples_completed=%llu models_consulted=%llu cache_hits=%llu "
      "cache_misses=%llu arenas_leased=%llu",
      parse_seconds * 1e3, plan_seconds * 1e3, selection_seconds * 1e3,
      sample_seconds * 1e3, aggregate_seconds * 1e3,
      static_cast<unsigned long long>(tuples_completed),
      static_cast<unsigned long long>(models_consulted),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(arenas_leased));
}

}  // namespace restore
