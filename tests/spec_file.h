// Reads the committed example specs. ctest runs every test binary from
// the source root (CMakeLists.txt), so a spec opens by its path in the
// checkout.
#ifndef HAS_TESTS_SPEC_FILE_H_
#define HAS_TESTS_SPEC_FILE_H_

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace has {
namespace testing {

/// Contents of examples/specs/<name>. A missing file fails the calling
/// test with the path it tried and yields "".
inline std::string LoadSpec(const std::string& name) {
  const std::string path = "examples/specs/" + name;
  std::ifstream in(path);
  if (!in) {
    ADD_FAILURE() << "cannot open " << path
                  << " (tests run from the source root)";
    return "";
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace testing
}  // namespace has

#endif  // HAS_TESTS_SPEC_FILE_H_
