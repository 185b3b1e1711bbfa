/**
 * @file
 * Warp-scheduler pick-policy unit tests (GTO and LRR), including a
 * property test of the rank-table GTO pick against the oldest-first
 * walk it replaced.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "sm/scheduler.hh"

namespace gqos
{
namespace
{

SchedulerState
withOrder(std::initializer_list<int> lanes_oldest_first)
{
    std::vector<std::uint8_t> lanes(lanes_oldest_first.begin(),
                                    lanes_oldest_first.end());
    SchedulerState sc;
    setAgeOrder(sc, lanes.data(), static_cast<int>(lanes.size()));
    return sc;
}

/** The oldest-first walk pickGto's rank minimum replaces. */
int
pickGtoByWalk(const std::vector<std::uint8_t> &oldest_first,
              int last_issued, std::uint64_t candidates)
{
    if (last_issued >= 0 && testBit(candidates, last_issued))
        return last_issued;
    for (std::uint8_t lane : oldest_first) {
        if (testBit(candidates, lane))
            return lane;
    }
    return -1;
}

TEST(Gto, GreedyPrefersLastIssuedWarp)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 7;
    std::uint64_t cand = setBit(setBit(0, 7), 3);
    EXPECT_EQ(pickGto(sc, cand), 7);
}

TEST(Gto, FallsBackToOldestReady)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = 5;
    std::uint64_t cand = setBit(setBit(0, 7), 3); // 5 not ready
    EXPECT_EQ(pickGto(sc, cand), 3);
}

TEST(Gto, SkipsOlderNonCandidates)
{
    SchedulerState sc = withOrder({3, 5, 7});
    sc.lastIssued = -1;
    std::uint64_t cand = setBit(0, 7);
    EXPECT_EQ(pickGto(sc, cand), 7);
}

TEST(Gto, NoCandidateInOrderReturnsMinusOne)
{
    SchedulerState sc = withOrder({3});
    EXPECT_EQ(pickGto(sc, setBit(0, 9)), -1);
}

TEST(Gto, RankPickEqualsOldestFirstWalk)
{
    // Random occupied-lane sets in random age order, random
    // candidate masks (sometimes with lanes outside the order) and
    // random greedy hints.
    Rng rng(2017);
    for (int draw = 0; draw < 10000; ++draw) {
        std::vector<std::uint8_t> lanes;
        for (int lane = 0; lane < 64; ++lane) {
            if (rng.below(4) != 0)
                lanes.push_back(static_cast<std::uint8_t>(lane));
        }
        for (std::size_t i = lanes.size(); i > 1; --i)
            std::swap(lanes[i - 1], lanes[rng.below(i)]);
        lanes.resize(rng.below(lanes.size() + 1));
        SchedulerState sc;
        setAgeOrder(sc, lanes.data(), static_cast<int>(lanes.size()));
        std::uint64_t cand = 0;
        int density = 1 + static_cast<int>(rng.below(16));
        for (int lane = 0; lane < 64; ++lane) {
            if (static_cast<int>(rng.below(density)) == 0)
                cand = setBit(cand, lane);
        }
        if (cand == 0)
            cand = setBit(0, static_cast<int>(rng.below(64)));
        sc.lastIssued = static_cast<int>(rng.below(65)) - 1;
        ASSERT_EQ(pickGto(sc, cand),
                  pickGtoByWalk(lanes, sc.lastIssued, cand))
            << "draw " << draw;
    }
}

TEST(Lrr, RotatesPastLastIssued)
{
    SchedulerState sc;
    sc.lastIssued = 3;
    std::uint64_t cand = setBit(setBit(0, 2), 5);
    EXPECT_EQ(pickLrr(sc, cand), 5); // first after lane 3
    sc.lastIssued = 5;
    EXPECT_EQ(pickLrr(sc, cand), 2); // wraps around
}

TEST(Lrr, StartsAtZeroInitially)
{
    SchedulerState sc;
    sc.lastIssued = -1;
    std::uint64_t cand = setBit(setBit(0, 1), 60);
    EXPECT_EQ(pickLrr(sc, cand), 1);
}

TEST(Lrr, HandlesHighLanes)
{
    SchedulerState sc;
    sc.lastIssued = 62;
    std::uint64_t cand = setBit(setBit(0, 63), 0);
    EXPECT_EQ(pickLrr(sc, cand), 63);
    sc.lastIssued = 63;
    EXPECT_EQ(pickLrr(sc, cand), 0);
}

TEST(Lrr, EmptyCandidatesReturnsMinusOne)
{
    SchedulerState sc;
    EXPECT_EQ(pickLrr(sc, 0), -1);
}

} // anonymous namespace
} // namespace gqos
