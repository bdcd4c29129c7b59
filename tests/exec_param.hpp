// Shared fixture for replaying runtime tests under every channel policy.
// The parameter is applied through the environment variable GraphRuntime
// resolves its kAuto channel policy against (FG_CHANNELS), so the test
// bodies run byte-for-byte unmodified on the SPSC rings the plan picks
// and on the MPMC queue everywhere — the point being that pipeline
// semantics (tokens, caboose, close, stats, flush ordering) are
// channel-invariant.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

namespace fg::test {

struct ChannelParam {
  const char* channels;  ///< "auto" | "mpmc"
};

inline constexpr ChannelParam kChannelMatrix[] = {{"auto"}, {"mpmc"}};

inline std::string channel_param_name(
    const ::testing::TestParamInfo<ChannelParam>& info) {
  return info.param.channels;
}

/// Sets the channel policy for one test and restores whatever was there
/// before (so an outer FG_CHANNELS=... suite replay still governs the
/// non-parameterized tests in the same binary).
class WithChannels : public ::testing::TestWithParam<ChannelParam> {
 protected:
  void SetUp() override {
    const char* v = std::getenv("FG_CHANNELS");
    saved_channels_ =
        v != nullptr ? std::optional<std::string>(v) : std::nullopt;
    ::setenv("FG_CHANNELS", GetParam().channels, 1);
  }

  void TearDown() override {
    if (saved_channels_) {
      ::setenv("FG_CHANNELS", saved_channels_->c_str(), 1);
    } else {
      ::unsetenv("FG_CHANNELS");
    }
  }

 private:
  std::optional<std::string> saved_channels_;
};

}  // namespace fg::test
