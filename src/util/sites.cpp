#include "util/sites.hpp"

#include <cstdlib>
#include <string_view>

namespace pwss::util::sites {

constinit Registry registry;

namespace {

// Process start: arms the PWSS_SITES rules and, when PWSS_FAULT_LIST is
// set (and not "0"), registers the exit dump of every site that ran.
const bool booted = [] {
  if (const char* spec = std::getenv("PWSS_SITES")) arm_spec(spec);
  const char* list = std::getenv("PWSS_FAULT_LIST");
  if (list != nullptr && *list != '\0' && std::string_view(list) != "0") {
    std::atexit([] { dump_sites(stderr); });
  }
  return true;
}();

}  // namespace
}  // namespace pwss::util::sites
