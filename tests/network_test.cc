#include "p2psim/network.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

namespace p2pdt {
namespace {

TEST(NetworkTest, AddNodesStartOnline) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(5);
  EXPECT_EQ(net.num_nodes(), 5u);
  EXPECT_EQ(net.num_online(), 5u);
  for (NodeId n = 0; n < 5; ++n) EXPECT_TRUE(net.IsOnline(n));
}

TEST(NetworkTest, OnlineToggleTracksCount) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(3);
  net.SetOnline(1, false);
  EXPECT_EQ(net.num_online(), 2u);
  net.SetOnline(1, false);  // idempotent
  EXPECT_EQ(net.num_online(), 2u);
  net.SetOnline(1, true);
  EXPECT_EQ(net.num_online(), 3u);
}

TEST(NetworkTest, LatencyWithinConfiguredBounds) {
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.min_latency = 0.02;
  opt.max_latency = 0.2;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(20);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      double lat = net.Latency(a, b);
      if (a == b) {
        EXPECT_DOUBLE_EQ(lat, 0.0);
      } else {
        EXPECT_GE(lat, 0.02);
        EXPECT_LE(lat, 0.2);
        EXPECT_DOUBLE_EQ(lat, net.Latency(b, a));  // symmetric
      }
    }
  }
}

TEST(NetworkTest, DeliveryAfterLatencyPlusTransmission) {
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.min_latency = 0.05;
  opt.max_latency = 0.05;  // constant latency
  opt.bandwidth_bytes_per_sec = 1000.0;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(2);
  double delivered_at = -1;
  net.Send(0, 1, 500, MessageType::kDataTransfer,
           [&] { delivered_at = sim.Now(); });
  sim.RunAll();
  EXPECT_NEAR(delivered_at, 0.05 + 0.5, 1e-9);
  EXPECT_EQ(net.stats().messages_delivered(), 1u);
  EXPECT_EQ(net.stats().bytes_sent(), 500u);
}

TEST(NetworkTest, SenderOfflineDropsImmediately) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  net.SetOnline(0, false);
  bool delivered = false, dropped = false;
  net.Send(0, 1, 10, MessageType::kLookup, [&] { delivered = true; },
           [&] { dropped = true; });
  sim.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(net.stats().messages_dropped(), 1u);
}

TEST(NetworkTest, ReceiverOfflineAtArrivalDrops) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  bool delivered = false, dropped = false;
  net.Send(0, 1, 10, MessageType::kLookup, [&] { delivered = true; },
           [&] { dropped = true; });
  // The receiver fails while the message is in flight.
  sim.Schedule(0.001, [&] { net.SetOnline(1, false); });
  sim.RunAll();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
}

TEST(NetworkTest, ReceiverBackOnlineBeforeArrivalDelivers) {
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.min_latency = opt.max_latency = 0.1;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(2);
  net.SetOnline(1, false);
  bool delivered = false;
  net.Send(0, 1, 10, MessageType::kLookup, [&] { delivered = true; });
  sim.Schedule(0.01, [&] { net.SetOnline(1, true); });
  sim.RunAll();
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, LossRateDropsApproximately) {
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.loss_rate = 0.25;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(2);
  int delivered = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    net.Send(0, 1, 8, MessageType::kGossip, [&] { ++delivered; });
  }
  sim.RunAll();
  EXPECT_NEAR(delivered / static_cast<double>(n), 0.75, 0.03);
  EXPECT_EQ(net.stats().messages_sent(), static_cast<uint64_t>(n));
}

TEST(NetworkTest, StatsBreakdownByType) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  net.Send(0, 1, 100, MessageType::kModelUpload, nullptr);
  net.Send(0, 1, 50, MessageType::kModelUpload, nullptr);
  net.Send(1, 0, 10, MessageType::kLookup, nullptr);
  sim.RunAll();
  EXPECT_EQ(net.stats().messages_sent(MessageType::kModelUpload), 2u);
  EXPECT_EQ(net.stats().bytes_sent(MessageType::kModelUpload), 150u);
  EXPECT_EQ(net.stats().messages_sent(MessageType::kLookup), 1u);
  EXPECT_EQ(net.stats().messages_sent(), 3u);
}

TEST(NetworkTest, StatsResetClears) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  net.Send(0, 1, 100, MessageType::kGossip, nullptr);
  sim.RunAll();
  net.stats().Reset();
  EXPECT_EQ(net.stats().messages_sent(), 0u);
  EXPECT_EQ(net.stats().bytes_sent(), 0u);
}

TEST(NetworkTest, StatsToStringListsActiveTypes) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  net.Send(0, 1, 100, MessageType::kModelBroadcast, nullptr);
  sim.RunAll();
  std::string s = net.stats().ToString();
  EXPECT_NE(s.find("model_broadcast"), std::string::npos);
  EXPECT_EQ(s.find("lookup"), std::string::npos);
}

TEST(NetworkTest, SelfSendDeliversWithZeroLatency) {
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.bandwidth_bytes_per_sec = 1e12;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(1);
  double at = -1;
  net.Send(0, 0, 8, MessageType::kLookup, [&] { at = sim.Now(); });
  sim.RunAll();
  EXPECT_NEAR(at, 0.0, 1e-9);
}

TEST(NetworkTest, MoveOnlyCallbacksTravelThroughSend) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  int got = 0;
  net.Send(0, 1, 8, MessageType::kDataTransfer,
           [p = std::make_unique<int>(7), &got] { got = *p; },
           [p = std::make_unique<int>(9), &got] { got = *p; });
  sim.RunAll();
  EXPECT_EQ(got, 7);
}

TEST(NetworkTest, CallbacksDestroyedOnceWhateverSettlesTheMessage) {
  // Both callbacks share `token`; once the simulator has settled the
  // message — delivered or dropped for any reason — every copy must be
  // gone, and exactly the right one must have run, once.
  enum class Outcome { kDelivered, kSendOffline, kRecvOffline, kRandomLoss,
                       kInjectedFault };
  for (Outcome outcome :
       {Outcome::kDelivered, Outcome::kSendOffline, Outcome::kRecvOffline,
        Outcome::kRandomLoss, Outcome::kInjectedFault}) {
    SCOPED_TRACE(static_cast<int>(outcome));
    Simulator sim;
    PhysicalNetworkOptions opt;
    if (outcome == Outcome::kRandomLoss) opt.loss_rate = 1.0;
    PhysicalNetwork net(sim, opt);
    net.AddNodes(2);
    if (outcome == Outcome::kSendOffline) net.SetOnline(0, false);
    if (outcome == Outcome::kRecvOffline) net.SetOnline(1, false);
    if (outcome == Outcome::kInjectedFault) {
      net.SetFaultHook([](NodeId, NodeId, MessageType, SimTime) {
        return FaultDecision{true, 0.0};
      });
    }
    auto token = std::make_shared<int>(0);
    int delivered = 0, dropped = 0;
    net.Send(0, 1, 16, MessageType::kLookup,
             [token, &delivered] { ++delivered; },
             [token, &dropped] { ++dropped; });
    EXPECT_GT(token.use_count(), 1);
    sim.RunAll();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(delivered, outcome == Outcome::kDelivered ? 1 : 0);
    EXPECT_EQ(dropped, outcome == Outcome::kDelivered ? 0 : 1);
  }
}

TEST(NetworkTest, CallbacklessMessagesSettleLikeAnyOther) {
  // A message with no callbacks (a maintenance probe) carries no callback
  // record; it must still be delivered, or dropped for the right reason.
  Simulator sim;
  PhysicalNetworkOptions opt;
  opt.loss_rate = 0.5;
  PhysicalNetwork net(sim, opt);
  net.AddNodes(3);
  net.SetFaultHook([](NodeId, NodeId to, MessageType, SimTime) {
    return FaultDecision{to == 2, 0.0};
  });
  constexpr int kSends = 400;
  for (int i = 0; i < kSends; ++i) {
    net.Send(0, 1, 8, MessageType::kOverlayMaintenance, nullptr, nullptr);
  }
  net.Send(0, 2, 8, MessageType::kOverlayMaintenance, nullptr, nullptr);
  sim.RunAll();
  const uint64_t lost = net.stats().dropped(DropReason::kRandomLoss);
  EXPECT_GT(lost, 100u);
  EXPECT_LT(lost, 300u);
  EXPECT_EQ(net.stats().dropped(DropReason::kInjectedFault), 1u);
  EXPECT_EQ(net.stats().messages_delivered(), kSends - lost);

  net.SetOnline(1, false);
  net.Send(0, 1, 8, MessageType::kOverlayMaintenance, nullptr, nullptr);
  net.SetOnline(0, false);
  net.Send(0, 1, 8, MessageType::kOverlayMaintenance, nullptr, nullptr);
  sim.RunAll();
  EXPECT_EQ(net.stats().dropped(DropReason::kSendOffline), 1u);
  EXPECT_EQ(net.stats().dropped(DropReason::kRandomLoss) +
                net.stats().dropped(DropReason::kRecvOffline),
            lost + 1);
  EXPECT_EQ(net.stats().messages_dropped(), lost + 3);
  EXPECT_EQ(net.stats().messages_delivered(), kSends - lost);
}

TEST(NetworkTest, EmptyStdFunctionDropCallbackSchedulesNothing) {
  // An empty std::function passed as on_drop must count as "no callback":
  // an offline sender's message then costs no event at all.
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(2);
  net.SetOnline(0, false);
  std::function<void()> no_drop;
  net.Send(0, 1, 8, MessageType::kLookup, nullptr, no_drop);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.RunAll(), 0u);
  EXPECT_EQ(net.stats().messages_dropped(), 1u);
}

}  // namespace
}  // namespace p2pdt
