#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace perfbench {

/// FNV-1a over the object bytes of trivially copyable values, so two results
/// hash equal only when they are bit-identical.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::vector<double>& values) {
    for (double v : values) add(v);
  }
};

}  // namespace perfbench
