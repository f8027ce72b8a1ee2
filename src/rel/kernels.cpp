#include "rel/kernels.h"

namespace temporadb {
namespace kernels {

// Every loop body computes `keep` as an integer 0/1 from comparisons and
// advances the output cursor by it — the store to `sel_out[count]` is
// unconditional, so there is no data-dependent branch for the predictor to
// miss.  Surviving order is ascending by construction.

size_t SelectOverlaps(const int64_t* begin, const int64_t* end, size_t n,
                      int64_t q_begin, int64_t q_end, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned keep = static_cast<unsigned>(begin[i] < q_end) &
                          static_cast<unsigned>(q_begin < end[i]) &
                          static_cast<unsigned>(begin[i] < end[i]);
    sel_out[count] = static_cast<uint32_t>(i);
    count += keep;
  }
  return count;
}

size_t SelectOverlapsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in,
                            int64_t q_begin, int64_t q_end,
                            uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    const unsigned keep = static_cast<unsigned>(begin[i] < q_end) &
                          static_cast<unsigned>(q_begin < end[i]) &
                          static_cast<unsigned>(begin[i] < end[i]);
    sel_out[count] = i;
    count += keep;
  }
  return count;
}

size_t SelectContains(const int64_t* begin, const int64_t* end, size_t n,
                      int64_t t, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const unsigned keep = static_cast<unsigned>(begin[i] <= t) &
                          static_cast<unsigned>(t < end[i]);
    sel_out[count] = static_cast<uint32_t>(i);
    count += keep;
  }
  return count;
}

size_t SelectContainsRefine(const int64_t* begin, const int64_t* end,
                            const uint32_t* sel_in, size_t n_in, int64_t t,
                            uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    const unsigned keep = static_cast<unsigned>(begin[i] <= t) &
                          static_cast<unsigned>(t < end[i]);
    sel_out[count] = i;
    count += keep;
  }
  return count;
}

size_t SelectEndEquals(const int64_t* end, size_t n, int64_t key,
                       uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    sel_out[count] = static_cast<uint32_t>(i);
    count += static_cast<unsigned>(end[i] == key);
  }
  return count;
}

size_t SelectEndEqualsRefine(const int64_t* end, const uint32_t* sel_in,
                             size_t n_in, int64_t key, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in[k];
    sel_out[count] = i;
    count += static_cast<unsigned>(end[i] == key);
  }
  return count;
}

size_t SelectLive(const uint8_t* live, size_t n, uint32_t* sel_out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    sel_out[count] = static_cast<uint32_t>(i);
    count += static_cast<unsigned>(live[i] != 0);
  }
  return count;
}

size_t IntersectPeriods(const int64_t* begin, const int64_t* end,
                        const uint32_t* sel_in, size_t n_in, int64_t o_begin,
                        int64_t o_end, uint32_t* sel_out, int64_t* out_begin,
                        int64_t* out_end) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in != nullptr ? sel_in[k] : static_cast<uint32_t>(k);
    const int64_t b = begin[i] > o_begin ? begin[i] : o_begin;
    const int64_t e = end[i] < o_end ? end[i] : o_end;
    sel_out[count] = i;
    out_begin[count] = b;
    out_end[count] = e;
    count += static_cast<unsigned>(b < e);
  }
  return count;
}

size_t IntersectBitemporal(const int64_t* v_begin, const int64_t* v_end,
                           const int64_t* t_begin, const int64_t* t_end,
                           const uint32_t* sel_in, size_t n_in,
                           int64_t ov_begin, int64_t ov_end, int64_t ot_begin,
                           int64_t ot_end, uint32_t* sel_out,
                           int64_t* out_v_begin, int64_t* out_v_end,
                           int64_t* out_t_begin, int64_t* out_t_end) {
  size_t count = 0;
  for (size_t k = 0; k < n_in; ++k) {
    const uint32_t i = sel_in != nullptr ? sel_in[k] : static_cast<uint32_t>(k);
    const int64_t vb = v_begin[i] > ov_begin ? v_begin[i] : ov_begin;
    const int64_t ve = v_end[i] < ov_end ? v_end[i] : ov_end;
    const int64_t tb = t_begin[i] > ot_begin ? t_begin[i] : ot_begin;
    const int64_t te = t_end[i] < ot_end ? t_end[i] : ot_end;
    sel_out[count] = i;
    out_v_begin[count] = vb;
    out_v_end[count] = ve;
    out_t_begin[count] = tb;
    out_t_end[count] = te;
    count += static_cast<unsigned>(vb < ve) & static_cast<unsigned>(tb < te);
  }
  return count;
}

}  // namespace kernels
}  // namespace temporadb
