// Runs a test once per GEMM dispatch target (kernels::detail): a TEST_P
// suite derived from OnEachTarget and instantiated with
// CODA_ON_EACH_TARGET(Suite) runs as Targets/Suite.Name/<target>. A target
// the host cannot run is reported as skipped, not passed.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/core/kernels.h"

namespace coda {

namespace kernels::detail {
// Names the target in gtest's failure messages.
inline void PrintTo(Target t, std::ostream* os) { *os << target_name(t); }
}  // namespace kernels::detail

class OnEachTarget
    : public ::testing::TestWithParam<kernels::detail::Target> {
 protected:
  void SetUp() override {
    if (!kernels::detail::supported(GetParam())) {
      GTEST_SKIP() << "the " << kernels::detail::target_name(GetParam())
                   << " GEMM kernel cannot run on this host";
    }
    previous_ = kernels::detail::use_target(GetParam());
    switched_ = true;
  }

  void TearDown() override {
    if (switched_) kernels::detail::use_target(previous_);
  }

 private:
  kernels::detail::Target previous_{};
  bool switched_ = false;
};

inline std::string target_param_name(
    const ::testing::TestParamInfo<kernels::detail::Target>& info) {
  return kernels::detail::target_name(info.param);
}

}  // namespace coda

#define CODA_ON_EACH_TARGET(Suite)                                     \
  INSTANTIATE_TEST_SUITE_P(                                            \
      Targets, Suite,                                                  \
      ::testing::ValuesIn(::coda::kernels::detail::kTargets),          \
      ::coda::target_param_name)
