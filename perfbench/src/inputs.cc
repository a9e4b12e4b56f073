// Copyright (c) swsample authors. Licensed under the MIT license.

#include "inputs.h"

#include <cstring>
#include <memory>

namespace perfbench {
namespace {

char* AppendDecimal(char* out, uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *out++ = tmp[--n];
  return out;
}

}  // namespace

Input MakeTsItems(uint64_t seed, uint64_t stream, uint64_t count,
                  double arrivals_per_unit, bool poisson) {
  Rng rng(seed, stream);
  const Poisson arrivals(arrivals_per_unit);
  const Zipf values(kValueDomain, kZipfExponent);
  const uint64_t fixed = static_cast<uint64_t>(arrivals_per_unit);
  Input input;
  input.items.reserve(count);
  Digest digest;
  swsample::Timestamp ts = 0;
  while (input.items.size() < count) {
    ++ts;
    uint64_t burst = poisson ? arrivals(rng) : fixed;
    for (; burst > 0 && input.items.size() < count; --burst) {
      const uint64_t value = values(rng);
      input.items.push_back({value, input.items.size(), ts});
      digest.Add(value);
      digest.Add(static_cast<uint64_t>(ts));
    }
  }
  input.count = count;
  input.last_ts = ts;
  input.digest = digest.Hex();
  return input;
}

Input WriteEventFile(uint64_t seed, uint64_t stream, uint64_t count,
                     bool timestamped, const std::string& path) {
  Input input;
  input.path = path;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return input;
  Rng rng(seed, stream);
  const Poisson arrivals(4.0);
  const Zipf values(kValueDomain, kZipfExponent);
  constexpr size_t kBuffer = 1 << 20;
  auto buffer = std::make_unique<char[]>(kBuffer + 64);
  char* out = buffer.get();
  Digest digest;
  bool ok = true;
  auto flush = [&] {
    const size_t len = static_cast<size_t>(out - buffer.get());
    digest.Add(buffer.get(), len);
    ok = ok && std::fwrite(buffer.get(), 1, len, f) == len;
    input.bytes += len;
    out = buffer.get();
  };
  swsample::Timestamp ts = 0;
  uint64_t burst = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (timestamped) {
      while (burst == 0) {
        ++ts;
        burst = arrivals(rng);
      }
      --burst;
      out = AppendDecimal(out, static_cast<uint64_t>(ts));
      *out++ = ' ';
    }
    out = AppendDecimal(out, values(rng));
    *out++ = '\n';
    if (static_cast<size_t>(out - buffer.get()) >= kBuffer) flush();
  }
  flush();
  ok = std::fclose(f) == 0 && ok;
  input.count = count;
  // Untimed lines take their 0-based arrival index as timestamp.
  input.last_ts =
      timestamped ? ts : static_cast<swsample::Timestamp>(count) - 1;
  if (ok) input.digest = digest.Hex();
  return input;
}

}  // namespace perfbench
