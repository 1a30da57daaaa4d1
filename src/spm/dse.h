// Design-space exploration (Phase II step 3): pick at most one buffer
// candidate per reference such that everything fits in the scratch pad
// and energy savings are maximal.
//
// This is a group knapsack (groups = references, items = buffer levels);
// we solve it exactly with dynamic programming over capacity granules and
// also provide the classic greedy-by-density heuristic as the ablation
// baseline the benches compare against.
#pragma once

#include <cstdint>
#include <vector>

#include "spm/energy.h"
#include "spm/reuse.h"

namespace foray::spm {

struct DseOptions {
  uint32_t spm_capacity = 4096;  ///< bytes
  uint32_t granule = 8;          ///< capacity quantization for the DP
  EnergyModel energy;
};

struct Selection {
  std::vector<BufferCandidate> chosen;
  uint64_t bytes_used = 0;
  double saved_nj = 0.0;  ///< predicted energy saved vs all-DRAM
};

/// Energy saved by a candidate under the given SPM (nJ): accesses move
/// from DRAM to SPM, fills pay both sides.
double candidate_saving_nj(const BufferCandidate& c, const DseOptions& opts);

/// Exact group-knapsack DP over capacity granules (exact for sizes
/// rounded up to `granule` bytes). Runs in O(groups x useful slots)
/// time and space, where the useful slots are
/// min(capacity / granule, sum over references of their largest
/// candidate's granules) + 1: past that sum no selection can use more,
/// so a huge capacity costs no more than the candidates themselves.
/// Ties keep the first selection found (groups in reference order, each
/// group's items in input order), and `chosen` lists the buffers in
/// reference order.
Selection select_buffers(const std::vector<BufferCandidate>& candidates,
                         const DseOptions& opts);

/// Greedy by savings density (ablation baseline).
Selection select_buffers_greedy(const std::vector<BufferCandidate>& candidates,
                                const DseOptions& opts);

}  // namespace foray::spm
