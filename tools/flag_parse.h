#ifndef UCQN_TOOLS_FLAG_PARSE_H_
#define UCQN_TOOLS_FLAG_PARSE_H_

#include <cerrno>
#include <climits>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace ucqn {

// The strict count parser ucqnc, ucqnd and ucqn_workload share: the
// token after argv[*i] (the flag) must be a positive decimal integer in
// range. Garbage ("banana"), trailing junk ("10x"), zero or negative
// values, overflow, and a missing value each print a one-line diagnostic
// naming the flag and return false. On success stores the value and
// advances *i past it.
inline bool NextCount(int argc, char** argv, int* i, std::size_t* slot) {
  const char* flag = argv[*i];
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s expects a positive integer value\n", flag);
    return false;
  }
  const char* text = argv[++*i];
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value <= 0 ||
      value == LLONG_MAX) {
    std::fprintf(stderr, "%s expects a positive integer, got \"%s\"\n", flag,
                 text);
    return false;
  }
  *slot = static_cast<std::size_t>(value);
  return true;
}

}  // namespace ucqn

#endif  // UCQN_TOOLS_FLAG_PARSE_H_
