#include "spm/dse.h"

#include <algorithm>
#include <map>

#include "util/status.h"

namespace foray::spm {

double candidate_saving_nj(const BufferCandidate& c, const DseOptions& opts) {
  const double spm = opts.energy.spm_access_nj(opts.spm_capacity);
  const double dram = opts.energy.dram_nj;
  const double before = static_cast<double>(c.spm_accesses) * dram;
  const double after = static_cast<double>(c.spm_accesses) * spm +
                       static_cast<double>(c.transfer_words) * (dram + spm);
  return before - after;
}

Selection select_buffers(const std::vector<BufferCandidate>& candidates,
                         const DseOptions& opts) {
  // Group candidates by reference.
  std::map<size_t, std::vector<const BufferCandidate*>> groups;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      groups[c.ref_index].push_back(&c);
    }
  }
  // A zero granule must quantize as one byte, not divide by zero.
  const uint32_t granule = std::max<uint32_t>(opts.granule, 1);
  auto need_of = [granule](const BufferCandidate& c) {
    return static_cast<uint32_t>((c.size_bytes + granule - 1) / granule);
  };
  // dp[w] = best savings using at most w granules, so it is
  // non-decreasing in w and constant past the sum of every group's
  // largest need: no selection can use more. The first w reaching the
  // maximum lies at or below that sum, so slots beyond it cannot change
  // the answer and are never allocated.
  std::vector<const std::vector<const BufferCandidate*>*> layers;
  uint64_t useful = 0;
  for (const auto& [ref, items] : groups) {
    (void)ref;
    FORAY_CHECK(items.size() < UINT16_MAX,
                "too many buffer candidates for one reference");
    layers.push_back(&items);
    uint32_t largest = 0;
    for (const BufferCandidate* c : items) {
      largest = std::max(largest, need_of(*c));
    }
    useful += largest;
  }
  const uint32_t slots = static_cast<uint32_t>(
      std::min<uint64_t>(opts.spm_capacity / granule, useful));
  const size_t row = static_cast<size_t>(slots) + 1;
  // choice[g * row + w] = 1 + the index of the item of group g that
  // last strictly improved dp[w] in that layer, 0 when the layer kept
  // the previous group's dp[w].
  std::vector<uint16_t> choice(layers.size() * row, 0);
  std::vector<double> dp(row, 0.0);
  std::vector<double> next(row);
  for (size_t g = 0; g < layers.size(); ++g) {
    const auto& items = *layers[g];
    uint16_t* picks = &choice[g * row];
    std::copy(dp.begin(), dp.end(), next.begin());
    for (size_t i = 0; i < items.size(); ++i) {
      const uint32_t need = need_of(*items[i]);
      const double gain = candidate_saving_nj(*items[i], opts);
      for (uint32_t w = need; w <= slots; ++w) {
        const double with = dp[w - need] + gain;
        if (with > next[w]) {
          next[w] = with;
          picks[w] = static_cast<uint16_t>(i + 1);
        }
      }
    }
    dp.swap(next);
  }

  uint32_t best_w = 0;
  for (uint32_t w = 0; w <= slots; ++w) {
    if (dp[w] > dp[best_w]) best_w = w;
  }
  Selection sel;
  sel.saved_nj = dp[best_w];
  // Walk the layers back from best_w, then restore group order.
  uint32_t w = best_w;
  for (size_t g = layers.size(); g-- > 0;) {
    const uint16_t pick = choice[g * row + w];
    if (pick == 0) continue;
    const BufferCandidate* c = (*layers[g])[pick - 1];
    sel.chosen.push_back(*c);
    sel.bytes_used += c->size_bytes;
    w -= need_of(*c);
  }
  std::reverse(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

Selection select_buffers_greedy(
    const std::vector<BufferCandidate>& candidates, const DseOptions& opts) {
  std::vector<const BufferCandidate*> order;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      order.push_back(&c);
    }
  }
  std::sort(order.begin(), order.end(),
            [&](const BufferCandidate* a, const BufferCandidate* b) {
              const double da = candidate_saving_nj(*a, opts) /
                                static_cast<double>(a->size_bytes);
              const double db = candidate_saving_nj(*b, opts) /
                                static_cast<double>(b->size_bytes);
              return da > db;
            });
  Selection sel;
  std::map<size_t, bool> ref_taken;
  for (const BufferCandidate* c : order) {
    if (ref_taken[c->ref_index]) continue;
    if (sel.bytes_used + c->size_bytes > opts.spm_capacity) continue;
    ref_taken[c->ref_index] = true;
    sel.chosen.push_back(*c);
    sel.bytes_used += c->size_bytes;
    sel.saved_nj += candidate_saving_nj(*c, opts);
  }
  return sel;
}

}  // namespace foray::spm
