/**
 * @file
 * Warp context and the decoded next instruction.
 */

#ifndef GQOS_SM_WARP_HH
#define GQOS_SM_WARP_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "common/rng.hh"

namespace gqos
{

/** Decoded (pre-generated) next warp instruction. */
struct NextInstr
{
    InstrClass cls = InstrClass::Alu;
    std::uint8_t lanes = warpSize;   //!< active lanes (divergence)
    std::uint16_t latency = 1;       //!< dependent-issue latency
    std::uint8_t transLeft = 0;      //!< memory transactions to issue
};

/** Scheduling states of a warp context. */
enum class WarpState : std::uint8_t
{
    Invalid,   //!< slot free
    Live,      //!< executing (ready or waiting)
    Draining,  //!< TB being preempted; no further issue
    Finished   //!< retired all instructions of the current TB
};

/**
 * One warp context on an SM. Plain data; the SmCore owns the arrays
 * and all behaviour.
 */
struct Warp
{
    Cycle readyAt = 0;        //!< earliest cycle the next instr issues
    Cycle memDoneAt = 0;      //!< completion of in-flight mem instr
    std::uint64_t instrIdx = 0; //!< warp instructions retired in TB
    std::uint64_t coldCursor = 0; //!< streaming-address cursor
    std::uint64_t age = 0;    //!< global dispatch order (GTO oldest)
    Addr coldBase = 0;        //!< this activation's streaming region
    Rng rng;                  //!< deterministic stream generator
    NextInstr next;
    float intensity = 1.0f;   //!< TB-group behaviour factor
    KernelId kernel = invalidKernel;
    std::int16_t tbSlot = -1;
    std::uint8_t phaseIdx = 0;
    WarpState state = WarpState::Invalid;
};

/** One thread-block slot on an SM. */
struct TbSlot
{
    std::vector<std::int16_t> warpSlots; //!< warp contexts held
    KernelId kernel = invalidKernel;
    std::int16_t warpsTotal = 0;
    std::int16_t warpsFinished = 0;
    std::uint64_t tbSeq = 0;  //!< global dispatch sequence number
    bool valid = false;
    bool draining = false;    //!< being preempted
};

} // namespace gqos

#endif // GQOS_SM_WARP_HH
