#include "common/bdd.hpp"

#include <gtest/gtest.h>

#include <random>

namespace vlcsa::netlist {
namespace {

TEST(Bdd, TerminalsAndVariables) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.node_count(), 2u);
  const auto x0 = mgr.var(0);
  const auto x0_again = mgr.var(0);
  EXPECT_EQ(x0, x0_again);  // unique table sharing
  EXPECT_THROW((void)mgr.var(3), std::out_of_range);
  EXPECT_THROW((void)mgr.var(-1), std::out_of_range);
}

TEST(Bdd, OperatorsMatchTruthTables) {
  BddManager mgr(2);
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  using BoolOp = bool (*)(bool, bool);
  const std::vector<std::pair<BddManager::NodeRef, BoolOp>> ops = {
      {mgr.and_(a, b), [](bool x, bool y) { return x && y; }},
      {mgr.or_(a, b), [](bool x, bool y) { return x || y; }},
      {mgr.xor_(a, b), [](bool x, bool y) { return x != y; }},
  };
  for (bool x : {false, true}) {
    for (bool y : {false, true}) {
      const std::vector<bool> assign{x, y};
      for (const auto& [f, ref] : ops) {
        EXPECT_EQ(mgr.evaluate(f, assign), ref(x, y));
      }
      EXPECT_EQ(mgr.evaluate(mgr.not_(a), assign), !x);
      EXPECT_EQ(mgr.evaluate(mgr.ite(a, b, mgr.not_(b)), assign), x ? y : !y);
    }
  }
}

TEST(Bdd, CanonicalFormDetectsTautologies) {
  BddManager mgr(2);
  const auto a = mgr.var(0);
  const auto b = mgr.var(1);
  // a|b == ~(~a & ~b): De Morgan collapses to the same node.
  EXPECT_EQ(mgr.or_(a, b), mgr.not_(mgr.and_(mgr.not_(a), mgr.not_(b))));
  EXPECT_EQ(mgr.xor_(a, a), BddManager::kFalse);
  EXPECT_EQ(mgr.or_(a, mgr.not_(a)), BddManager::kTrue);
}

TEST(Bdd, FindSatisfying) {
  BddManager mgr(4);
  const auto f =
      mgr.and_(mgr.var(0), mgr.and_(mgr.not_(mgr.var(1)), mgr.var(3)));
  const auto assignment = mgr.find_satisfying(f);
  ASSERT_TRUE(assignment.has_value());
  EXPECT_TRUE(mgr.evaluate(f, *assignment));
  EXPECT_TRUE((*assignment)[0]);
  EXPECT_FALSE((*assignment)[1]);
  EXPECT_TRUE((*assignment)[3]);
  EXPECT_FALSE(mgr.find_satisfying(BddManager::kFalse).has_value());
}

TEST(Bdd, CountSatisfying) {
  BddManager mgr(3);
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(BddManager::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(BddManager::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(mgr.var(1)), 4.0);
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(mgr.and_(mgr.var(0), mgr.var(2))), 2.0);
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(mgr.xor_(mgr.var(0), mgr.var(1))), 4.0);
}

TEST(Bdd, MajorityFunctionSatCount) {
  // Majority of 5: C(5,3)+C(5,4)+C(5,5) = 16 satisfying assignments.
  BddManager mgr(5);
  // Build via dynamic programming over "at least t of the first i vars".
  std::vector<BddManager::NodeRef> prev(6, BddManager::kFalse);
  prev[0] = BddManager::kTrue;
  for (int i = 0; i < 5; ++i) {
    std::vector<BddManager::NodeRef> cur(6, BddManager::kFalse);
    for (int t = 0; t <= 5; ++t) {
      const auto with = t > 0 ? prev[static_cast<std::size_t>(t - 1)] : BddManager::kTrue;
      cur[static_cast<std::size_t>(t)] =
          mgr.ite(mgr.var(i), with, prev[static_cast<std::size_t>(t)]);
    }
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(mgr.count_satisfying(prev[3]), 16.0);
}

TEST(Bdd, RandomExpressionsAgreeWithBruteForce) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int vars = 5;
    BddManager mgr(vars);
    // Random expression DAG over refs.
    std::vector<BddManager::NodeRef> pool;
    for (int v = 0; v < vars; ++v) pool.push_back(mgr.var(v));
    // Parallel reference evaluation over all 32 assignments as bitmasks.
    std::vector<std::uint32_t> truth;
    for (int v = 0; v < vars; ++v) {
      std::uint32_t mask = 0;
      for (int m = 0; m < 32; ++m) {
        if ((m >> v) & 1) mask |= 1u << m;
      }
      truth.push_back(mask);
    }
    for (int step = 0; step < 30; ++step) {
      const std::size_t i = rng() % pool.size();
      const std::size_t j = rng() % pool.size();
      switch (rng() % 4) {
        case 0:
          pool.push_back(mgr.and_(pool[i], pool[j]));
          truth.push_back(truth[i] & truth[j]);
          break;
        case 1:
          pool.push_back(mgr.or_(pool[i], pool[j]));
          truth.push_back(truth[i] | truth[j]);
          break;
        case 2:
          pool.push_back(mgr.xor_(pool[i], pool[j]));
          truth.push_back(truth[i] ^ truth[j]);
          break;
        default:
          pool.push_back(mgr.not_(pool[i]));
          truth.push_back(~truth[i]);
          break;
      }
    }
    for (int m = 0; m < 32; ++m) {
      std::vector<bool> assignment(vars);
      for (int v = 0; v < vars; ++v) assignment[static_cast<std::size_t>(v)] = (m >> v) & 1;
      EXPECT_EQ(mgr.evaluate(pool.back(), assignment), ((truth.back() >> m) & 1) != 0);
    }
  }
}

TEST(Bdd, NodeLimitThrows) {
  BddManager mgr(40);
  mgr.set_node_limit(64);
  // XOR chains grow linearly; hitting 64 nodes is immediate.
  EXPECT_THROW(
      {
        auto f = mgr.var(0);
        for (int v = 1; v < 40; ++v) f = mgr.xor_(f, mgr.var(v));
      },
      std::runtime_error);
}

}  // namespace
}  // namespace vlcsa::netlist
