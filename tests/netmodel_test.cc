#include "baselines/netmodel.h"

#include <gtest/gtest.h>

namespace pbio::netmodel {
namespace {

TEST(SimNet, TransferTimeIsLatencyPlusSerialization) {
  NetworkModel m;
  m.latency_us = 100.0;
  m.bandwidth_mbps = 100.0;
  EXPECT_DOUBLE_EQ(m.transfer_us(0), 100.0);
  // 100 Mbps = 100 bits/us: 1250 bytes = 10000 bits -> 100 us.
  EXPECT_DOUBLE_EQ(m.transfer_us(1250), 200.0);
  EXPECT_DOUBLE_EQ(m.transfer_ms(1250), 0.2);
}

TEST(SimNet, MonotoneInBytes) {
  const auto m = paper_network();
  double prev = 0;
  for (std::uint64_t b : {0ull, 100ull, 1000ull, 10000ull, 100000ull}) {
    const double t = m.transfer_us(b);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(SimNet, PaperModelMatchesCalibrationPoints) {
  // Calibrated against the paper's Figure 1 one-way network components:
  // ~0.227 ms at 100 B and ~15.39 ms at 100 KB.
  const auto m = paper_network();
  EXPECT_NEAR(m.transfer_ms(100), 0.227, 0.03);
  EXPECT_NEAR(m.transfer_ms(100 * 1024), 15.39, 0.8);
}

TEST(SimNet, ModernNetworkIsOrdersFaster) {
  const auto paper = paper_network();
  const auto modern = modern_network();
  EXPECT_LT(modern.transfer_us(100000) * 50, paper.transfer_us(100000));
  EXPECT_LT(modern.latency_us, paper.latency_us);
}

}  // namespace
}  // namespace pbio::netmodel
