#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <thread>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using kernels::Backend;
using kernels::BackendPref;
using xconv::testing::random_vec;

namespace {
jit::ConvKernelDesc small_desc() {
  jit::ConvKernelDesc d;
  d.isa = platform::max_isa() >= platform::Isa::avx512
              ? platform::Isa::avx512
              : platform::Isa::avx2;
  d.vlen = platform::vlen_fp32(d.isa);
  d.rbp = 1;
  d.rbq = 4;
  d.r = d.s = 3;
  d.in_row_stride = 16 * d.vlen;
  d.out_row_stride = 8 * d.vlen;
  d.c_iters = d.vlen;
  return d;
}
}  // namespace

TEST(Registry, CachesByDescriptor) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  const std::size_t before = reg.size();
  const auto* k1 = reg.conv(d, BackendPref::auto_pick);
  const auto* k2 = reg.conv(d, BackendPref::auto_pick);
  EXPECT_EQ(k1, k2);  // cached, not re-JITted
  EXPECT_GE(reg.size(), before + (k1 == k2 ? 1 : 2));
  auto d2 = d;
  d2.rbq = 5;
  const auto* k3 = reg.conv(d2, BackendPref::auto_pick);
  EXPECT_NE(k1, k3);
}

TEST(Registry, BackendPreferenceIsHonored) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  EXPECT_EQ(reg.conv(d, BackendPref::scalar)->backend(), Backend::scalar);
  if (platform::max_isa() >= platform::Isa::avx2) {
    EXPECT_EQ(reg.conv(d, BackendPref::jit)->backend(), Backend::jit);
    EXPECT_EQ(reg.conv(d, BackendPref::auto_pick)->backend(), Backend::jit);
  }
}

TEST(Registry, AllBackendsAgree) {
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = small_desc();
  const std::size_t in_sz =
      static_cast<std::size_t>(d.rbp + d.r + 2) * d.in_row_stride +
      (d.rbq + d.s) * d.vlen;
  const std::size_t out_sz =
      static_cast<std::size_t>(d.rbp + 1) * d.out_row_stride;
  const auto in = random_vec(in_sz, 1);
  const auto wt = random_vec(static_cast<std::size_t>(d.r) * d.s * d.vlen *
                                 d.vlen,
                             2);
  const auto base = random_vec(out_sz, 3);

  std::vector<std::vector<float>> outs;
  for (BackendPref pref : {BackendPref::scalar, BackendPref::auto_pick}) {
    auto out = base;
    reg.conv(d, pref)->run(in.data(), wt.data(), out.data(), in.data(),
                           wt.data(), out.data());
    outs.push_back(std::move(out));
  }
  xconv::testing::expect_close(outs[0], outs[1], 1e-4, "scalar-vs-auto");
}

TEST(Registry, UpdBackendsAgree) {
  auto& reg = kernels::KernelRegistry::instance();
  jit::UpdKernelDesc d;
  d.isa = platform::max_isa() >= platform::Isa::avx512
              ? platform::Isa::avx512
              : platform::Isa::avx2;
  d.vlen = platform::vlen_fp32(d.isa);
  d.bp = 3;
  d.bq = 5;
  d.in_row_stride = 12 * d.vlen;
  d.out_row_stride = 8 * d.vlen;

  const auto in = random_vec(static_cast<std::size_t>(d.bp + 1) *
                                 d.in_row_stride,
                             4);
  const auto dout = random_vec(static_cast<std::size_t>(d.bp + 1) *
                                   d.out_row_stride,
                               5);
  const auto base = random_vec(static_cast<std::size_t>(d.vlen) * d.vlen, 6);
  auto a = base, b = base;
  reg.upd(d, BackendPref::scalar)
      ->run(in.data(), dout.data(), a.data(), nullptr, nullptr, nullptr);
  reg.upd(d, BackendPref::auto_pick)
      ->run(in.data(), dout.data(), b.data(), in.data(), dout.data(),
            b.data());
  xconv::testing::expect_close(a, b, 1e-4, "upd scalar-vs-auto");
}

TEST(Registry, EnvBackendOverride) {
  ::setenv("XCONV_BACKEND", "scalar", 1);
  EXPECT_EQ(kernels::backend_pref_from_env(), BackendPref::scalar);
  ::setenv("XCONV_BACKEND", "jit", 1);
  EXPECT_EQ(kernels::backend_pref_from_env(), BackendPref::jit);
  ::setenv("XCONV_BACKEND", "bogus", 1);
  EXPECT_EQ(kernels::backend_pref_from_env(), BackendPref::auto_pick);
  ::unsetenv("XCONV_BACKEND");
}

// Hammer the registry from many threads on overlapping keys: every thread
// must observe the same kernel pointer per descriptor (first insert wins,
// losers discarded), with no crash, deadlock, or duplicate cache entry.
TEST(Registry, ConcurrentFirstUseResolution) {
  auto& reg = kernels::KernelRegistry::instance();
  constexpr int kThreads = 8;
  constexpr int kDescs = 6;

  std::vector<jit::ConvKernelDesc> descs;
  for (int i = 0; i < kDescs; ++i) {
    auto d = small_desc();
    d.rbq = 8 + i;  // distinct keys, not shared with other tests
    descs.push_back(d);
  }

  const std::size_t before = reg.size();
  std::array<std::array<const kernels::ConvMicrokernel*, kDescs>, kThreads>
      seen{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (int i = 0; i < kDescs; ++i) {
          // Rotate start index per thread so first-use races on every key.
          const int idx = (i + t) % kDescs;
          seen[t][idx] = reg.conv(descs[idx], BackendPref::scalar);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int i = 0; i < kDescs; ++i) {
    ASSERT_NE(seen[0][i], nullptr);
    for (int t = 1; t < kThreads; ++t)
      EXPECT_EQ(seen[0][i], seen[t][i]) << "thread " << t << " desc " << i;
  }
  // Exactly one cache entry per descriptor; racing losers were discarded.
  EXPECT_EQ(reg.size(), before + kDescs);
}

TEST(Registry, BackendNames) {
  EXPECT_STREQ(kernels::backend_name(Backend::jit), "jit");
  EXPECT_STREQ(kernels::backend_name(Backend::scalar), "scalar");
}
