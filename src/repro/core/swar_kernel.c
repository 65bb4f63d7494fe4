/* Byte-lane SWAR match counts for the width-class engine (repro.core.batch).
 *
 * Each uint32 word packs four 8-bit batmap entries (indicator bit in the MSB
 * of every byte, 7 payload bits below it).  A byte lane matches when the two
 * payloads are equal and at least one indicator bit is set -- the paper's
 * condition (A_i[p] == A_j[p]) and (b_i[p] or b_j[p]), evaluated branch-free
 * with the two-line SWAR test of Section III-A.
 *
 * A wide row of `wa` words is folded onto a narrow row of `wb` words
 * (`wa` is a multiple of `wb`): word p of the wide row is compared with word
 * p mod wb of the narrow one.
 *
 * Rows are addressed by element strides so row-strided views (slices,
 * memory-mapped spills) need no copy; words within a row are contiguous.
 * Loaded through ctypes, which releases the GIL for the duration of a call.
 */
#include <stdint.h>

#define MSB 0x80808080u
#define LSB 0x01010101u
/* Each byte lane gains at most one per word, so 255 words cannot carry. */
#define LANE_CHUNK 240

static inline uint32_t lane_matches(uint32_t x, uint32_t y)
{
    return (~(((x ^ y) | MSB) - LSB) & (x | y) & MSB) >> 7;
}

static inline int64_t lane_total(uint32_t lanes)
{
    lanes = (lanes & 0x00FF00FFu) + ((lanes >> 8) & 0x00FF00FFu);
    return (lanes & 0xFFFFu) + (lanes >> 16);
}

static int64_t fold_pair(const uint32_t *a, int64_t wa,
                         const uint32_t *b, int64_t wb)
{
    int64_t total = 0;
    for (int64_t base = 0; base < wa; base += wb) {
        const uint32_t *x = a + base;
        for (int64_t start = 0; start < wb; start += LANE_CHUNK) {
            int64_t stop = wb - start < LANE_CHUNK ? wb : start + LANE_CHUNK;
            uint32_t lanes = 0;
            for (int64_t p = start; p < stop; p++)
                lanes += lane_matches(x[p], b[p]);
            total += lane_total(lanes);
        }
    }
    return total;
}

/* Two wide rows against one narrow row: each narrow word is loaded once. */
static void fold_pair2(const uint32_t *a0, const uint32_t *a1, int64_t wa,
                       const uint32_t *b, int64_t wb, int64_t *t0, int64_t *t1)
{
    int64_t total0 = 0, total1 = 0;
    for (int64_t base = 0; base < wa; base += wb) {
        const uint32_t *x0 = a0 + base, *x1 = a1 + base;
        for (int64_t start = 0; start < wb; start += LANE_CHUNK) {
            int64_t stop = wb - start < LANE_CHUNK ? wb : start + LANE_CHUNK;
            uint32_t lanes0 = 0, lanes1 = 0;
            for (int64_t p = start; p < stop; p++) {
                lanes0 += lane_matches(x0[p], b[p]);
                lanes1 += lane_matches(x1[p], b[p]);
            }
            total0 += lane_total(lanes0);
            total1 += lane_total(lanes1);
        }
    }
    *t0 = total0;
    *t1 = total1;
}

/* Narrow rows are visited in blocks of about this many bytes, which stay
 * cache-resident while every wide row streams past them once. */
#define BLOCK_BYTES (256 * 1024)

/* out[i * n_b + j] = matches of large row i folded onto small row j. */
void fold_counts(const uint32_t *large, int64_t n_a, int64_t stride_a, int64_t wa,
                 const uint32_t *small, int64_t n_b, int64_t stride_b, int64_t wb,
                 int64_t *out)
{
    int64_t block = BLOCK_BYTES / (4 * (wb > 0 ? wb : 1));
    if (block < 1)
        block = 1;
    for (int64_t j0 = 0; j0 < n_b; j0 += block) {
        int64_t j1 = j0 + block < n_b ? j0 + block : n_b;
        int64_t i = 0;
        for (; i + 1 < n_a; i += 2) {
            const uint32_t *a0 = large + i * stride_a, *a1 = a0 + stride_a;
            for (int64_t j = j0; j < j1; j++)
                fold_pair2(a0, a1, wa, small + j * stride_b, wb,
                           out + i * n_b + j, out + (i + 1) * n_b + j);
        }
        for (; i < n_a; i++)
            for (int64_t j = j0; j < j1; j++)
                out[i * n_b + j] = fold_pair(large + i * stride_a, wa,
                                             small + j * stride_b, wb);
    }
}

/* out[k] = matches of large row k folded onto small row k. */
void fold_counts_rows(const uint32_t *large, int64_t n, int64_t stride_a, int64_t wa,
                      const uint32_t *small, int64_t stride_b, int64_t wb,
                      int64_t *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = fold_pair(large + k * stride_a, wa, small + k * stride_b, wb);
}
