#include "sim/stats.hpp"

#include <cstdio>

namespace spider {

std::string format_ms(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f ms", to_ms(d));
  return buf;
}

}  // namespace spider
