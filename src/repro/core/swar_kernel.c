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

/* ------------------------------------------------------------------------ *
 * Cuckoo construction (repro.core.bulk_build and repro.core.builder).
 *
 * Element indices are flat positions into the caller's element array; EMPTY
 * (-1) marks a vacant slot.  None of these loops allocates per element: the
 * round engine uses one 3r claim scratch and three frontier buffers sized
 * for the largest set, reused set after set.
 * ------------------------------------------------------------------------ */
#include <stdlib.h>

#define EMPTY (-1)

static const int32_t next_table[3] = {1, 2, 0};

/* One set of the round engine.  Every pending copy is a walk (element,
 * table).  Each round all walks claim their candidate slot (the last walk in
 * frontier order wins); winners store their element and hand the displaced
 * occupant's walk on; losers retry at the next table.  The next frontier is
 * the losers, then the displaced, both in frontier order.  Every walk moves
 * once per round, so after round k every pending walk has made k moves:
 * when k reaches max_moves, all pending walks fail their elements at once
 * (stored copies evicted).  Returns the number of rounds this set took. */
static int64_t place_one(const int32_t *slots, int64_t n_total, int64_t first,
                         int64_t n, int64_t base, int64_t max_moves,
                         int32_t *rows, uint8_t *failed, int32_t *claim,
                         int32_t *cur, int32_t *nxt, int32_t *disp,
                         int64_t *moves_out, int64_t *transcript_out)
{
    /* cur/nxt/disp hold 2 int32 columns each: element, table. */
    int64_t size = 2 * n, rounds = 0, total = 0;
    for (int64_t i = 0; i < n; i++) {
        cur[i] = cur[n + i] = (int32_t)(first + i);
        cur[2 * n + i] = 0;
        cur[3 * n + i] = 1;
    }
    while (size > 0) {
        int32_t *fe = cur, *ft = cur + 2 * n, *ne = nxt, *nt = nxt + 2 * n;
        int32_t *de = disp, *dt = disp + 2 * n;
        int64_t n_next = 0, n_disp = 0;
        rounds++;
        for (int64_t i = 0; i < size; i++)
            claim[slots[ft[i] * n_total + fe[i]] - base] = (int32_t)i;
        for (int64_t i = 0; i < size; i++) {
            int32_t target = slots[ft[i] * n_total + fe[i]];
            int32_t *owner = claim + (target - base);
            if (*owner != (int32_t)i) {          /* lost: every loser precedes the winner */
                ne[n_next] = fe[i];
                nt[n_next++] = next_table[ft[i]];
                continue;
            }
            *owner = -1;
            int32_t displaced = rows[target];
            rows[target] = fe[i];
            if (displaced == EMPTY) {            /* found a nest */
                total += rounds;
            } else {
                de[n_disp] = displaced;
                dt[n_disp++] = next_table[ft[i]];
            }
        }
        for (int64_t k = 0; k < n_disp; k++) {
            ne[n_next] = de[k];
            nt[n_next++] = dt[k];
        }
        if (rounds >= max_moves) {               /* every pending walk is out of budget */
            for (int64_t k = 0; k < n_next; k++) {
                int32_t e = ne[k];
                total += rounds;
                if (failed[e])
                    continue;
                failed[e] = 1;
                for (int t = 0; t < 3; t++) {
                    int32_t s = slots[t * n_total + e];
                    if (rows[s] == e)
                        rows[s] = EMPTY;
                }
            }
            n_next = 0;
        }
        size = n_next;
        int32_t *swap = cur;
        cur = nxt;
        nxt = swap;
    }
    *moves_out = total;
    *transcript_out = rounds;
    return rounds;
}

/* The round engine over a group of sets sharing the range r.  slots is the
 * (3, n_total) flat slot of every element in every table; set s owns
 * elements [starts[s], starts[s] + lengths[s]) and slots [3rs, 3r(s+1)).
 * Claims never cross sets, so each set runs its rounds on its own.  rows
 * (3r per set, filled here) and failed (zeroed) are outputs.  Returns the largest
 * per-set round count, -1 when scratch memory cannot be allocated, or -2
 * when a slot lies outside its set's region (nothing is placed then). */
int64_t place_sets(const int32_t *slots, int64_t n_total,
                   const int64_t *starts, const int64_t *lengths, int64_t n_sets,
                   int64_t r, int64_t max_moves, int32_t *rows, uint8_t *failed,
                   int64_t *set_moves, int64_t *set_transcript)
{
    int64_t longest = 0, rounds = 0;
    for (int64_t s = 0; s < n_sets; s++) {
        for (int t = 0; t < 3; t++)
            for (int64_t i = starts[s]; i < starts[s] + lengths[s]; i++) {
                int32_t slot = slots[t * n_total + i];
                if (slot < 3 * r * s || slot >= 3 * r * (s + 1))
                    return -2;
            }
        if (lengths[s] > longest)
            longest = lengths[s];
    }
    int32_t *claim = malloc(3 * r * sizeof(int32_t));
    int32_t *scratch = malloc((12 * longest + 1) * sizeof(int32_t));
    if (claim == NULL || scratch == NULL) {
        free(claim);
        free(scratch);
        return -1;
    }
    for (int64_t k = 0; k < 3 * r; k++)
        claim[k] = -1;
    for (int64_t s = 0; s < n_sets; s++) {
        int64_t n = lengths[s];
        int32_t *cur = scratch, *nxt = scratch + 4 * n, *disp = scratch + 8 * n;
        for (int64_t k = 3 * r * s; k < 3 * r * (s + 1); k++)
            rows[k] = EMPTY;
        int64_t took = place_one(slots, n_total, starts[s], n, 3 * r * s, max_moves,
                                 rows, failed, claim, cur, nxt, disp,
                                 set_moves + s, set_transcript + s);
        if (took > rounds)
            rounds = took;
    }
    free(claim);
    free(scratch);
    return rounds;
}

/* One copy of the serial INSERT walk: push tau around the tables in cyclic
 * order until a vacant slot takes it or max_loop full cycles pass.  Returns
 * EMPTY on success, else the element left without a nest. */
static int64_t insert_once(int64_t x, const int64_t *pos, int64_t n, int64_t r,
                           int64_t max_loop, int64_t *rows, int64_t *stats)
{
    int64_t tau = x, moves = 0;
    for (int64_t loop = 0; loop < max_loop && tau != EMPTY; loop++)
        for (int t = 0; t < 3; t++) {
            int64_t *cell = rows + t * r + pos[t * n + tau];
            int64_t out = *cell;
            *cell = tau;
            tau = out;
            moves++;
            if (tau == EMPTY)
                break;
        }
    stats[2] += moves;
    if (moves > stats[3])
        stats[3] = moves;
    return tau;
}

/* Clear the stored copies of x (only its three hash slots can hold it). */
static void remove_all(int64_t x, const int64_t *pos, int64_t n, int64_t r,
                       int64_t *rows)
{
    for (int t = 0; t < 3; t++) {
        int64_t *cell = rows + t * r + pos[t * n + x];
        if (*cell == x)
            *cell = EMPTY;
    }
}

/* The serial inserter (place_set) over n sorted elements with (3, n) slot
 * positions.  Each element is inserted twice; a copy that finds no nest
 * fails the element (all copies removed) and re-walks the displaced victim
 * once, failing it too if that walk finds no nest either.  rows (3, r) is
 * output, as element ids; failed receives failed element ids in the order
 * they were recorded (at most 2n); stats = {inserted, failed, total_moves,
 * max_transcript}.  With stop_on_failure the walk ends after the first
 * element that recorded a failure.  Returns the number of failed entries. */
int64_t walk_set(const int64_t *elements, const int64_t *pos, int64_t n, int64_t r,
                 int64_t max_loop, int64_t stop_on_failure, int64_t *rows,
                 int64_t *failed, int64_t *stats)
{
    int64_t n_failed = 0;
    for (int64_t k = 0; k < 3 * r; k++)
        rows[k] = EMPTY;
    for (int k = 0; k < 4; k++)
        stats[k] = 0;
    for (int64_t x = 0; x < n; x++) {
        int64_t before = n_failed;
        for (int copy = 0; copy < 2; copy++) {
            int64_t nestless = insert_once(x, pos, n, r, max_loop, rows, stats);
            if (nestless == EMPTY)
                continue;
            remove_all(x, pos, n, r, rows);
            failed[n_failed++] = x;
            if (nestless != x) {
                int64_t victim = insert_once(nestless, pos, n, r, max_loop, rows, stats);
                if (victim != EMPTY) {
                    remove_all(victim, pos, n, r, rows);
                    failed[n_failed++] = victim;
                }
            }
            break;
        }
        stats[0]++;
        stats[1] += n_failed - before;
        if (stop_on_failure && n_failed > before)
            break;
    }
    for (int64_t k = 0; k < 3 * r; k++)
        if (rows[k] != EMPTY)
            rows[k] = elements[rows[k]];
    for (int64_t k = 0; k < n_failed; k++)
        failed[k] = elements[failed[k]];
    return n_failed;
}

/* Byte-encode a placed group (8-bit entries): every element stored in
 * exactly two tables gets the payload of each table in the low bits and the
 * cyclic-order indicator bit at indicator_shift -- set on the first table
 * only for the pair {0, 2}, which is ordered 2 -> 0.  entries (zeroed) is
 * output (n_rows cells).  Returns 0; 1 when an element holds a wrong number
 * of copies (info = {element index, copies}, the first such element); 2 when
 * a stored element's payload exceeds payload_mask in any table; 3 when a
 * slot lies outside [0, n_rows) (nothing is encoded then). */
int64_t encode_group(const int32_t *rows, const int32_t *slots, const int64_t *payloads,
                     const uint8_t *failed, int64_t n, int64_t payload_mask,
                     int64_t indicator_shift, uint8_t *entries, int64_t *info,
                     int64_t n_rows)
{
    int overflow = 0;
    for (int64_t k = 0; k < 3 * n; k++)
        if (slots[k] < 0 || slots[k] >= n_rows)
            return 3;
    for (int64_t i = 0; i < n; i++) {
        int present[3], copies = 0;
        for (int t = 0; t < 3; t++) {
            present[t] = rows[slots[t * n + i]] == (int32_t)i;
            copies += present[t];
        }
        if (failed[i] ? copies != 0 : copies != 2) {
            info[0] = i;
            info[1] = copies;
            return 1;
        }
        if (copies == 0)
            continue;
        for (int t = 0; t < 3; t++)
            overflow |= payloads[t * n + i] > payload_mask;
        int a = present[0] ? 0 : 1, b = present[2] ? 2 : 1;
        int64_t bit_a = a == 0 && b == 2;
        entries[slots[a * n + i]] = (uint8_t)((bit_a << indicator_shift) | payloads[a * n + i]);
        entries[slots[b * n + i]] = (uint8_t)(((1 - bit_a) << indicator_shift) | payloads[b * n + i]);
    }
    return overflow ? 2 : 0;
}

/* ------------------------------------------------------------------------ *
 * The standard-library append (repro.core.append): the sets-file parser,
 * hashing, the serial walk over group slots, and the Figure-4 row interleave.
 * ------------------------------------------------------------------------ */
#include <stdlib.h>
#include <string.h>

/* The separators of bytes.split() within a line: space, \t, \r, \v, \f. */
static int is_blank(uint8_t c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

static int compare_ids(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The FIMI sets-file grammar of repro.datasets.fimi_grammar.read_sets_file:
 * lines end at '\n'; ids are runs of at most max_digits ASCII digits
 * separated by blanks; blank lines and lines whose first token starts with
 * '#' are skipped.  Each other line becomes one set, sorted and
 * duplicate-free: its ids are appended to values (room for one id per two
 * input bytes) and its size to lengths (room for one per line).  Returns the
 * number of sets, or -1 - offset of the first line that breaks the grammar
 * (the caller re-reads that line for its error message). */
int64_t parse_sets(const uint8_t *data, int64_t n, int64_t max_digits, int64_t *values,
                   int64_t *lengths)
{
    int64_t n_sets = 0, used = 0;
    for (int64_t line = 0, end; line < n; line = end + 1) {
        const uint8_t *stop = memchr(data + line, '\n', (size_t)(n - line));
        end = stop ? stop - data : n;
        int64_t p = line;
        while (p < end && is_blank(data[p]))
            p++;
        if (p == end || data[p] == '#')
            continue;
        int64_t first = used;
        int ordered = 1;
        while (p < end) {
            int64_t start = p;
            uint64_t v = 0;
            while (p < end && data[p] >= '0' && data[p] <= '9')
                v = 10 * v + (uint64_t)(data[p++] - '0');
            if (p == start || p - start > max_digits || (p < end && !is_blank(data[p])))
                return -1 - line;
            ordered &= used == first || (int64_t)v > values[used - 1];
            values[used++] = (int64_t)v;
            while (p < end && is_blank(data[p]))
                p++;
        }
        if (!ordered) {
            qsort(values + first, (size_t)(used - first), sizeof *values, compare_ids);
            int64_t kept = first + 1;
            for (int64_t k = first + 1; k < used; k++)
                if (values[k] != values[kept - 1])
                    values[kept++] = values[k];
            used = kept;
        }
        lengths[n_sets++] = used - first;
    }
    return n_sets;
}

/* One round of repro.core.hashing.FeistelPermutation (32-bit mixing). */
static uint64_t feistel_round(uint64_t v, uint64_t key)
{
    v = (v * 0x9E3779B1u + key) & 0xFFFFFFFFu;
    v ^= v >> 15;
    v = (v * 0x85EBCA77u) & 0xFFFFFFFFu;
    v ^= v >> 13;
    return v;
}

/* pi_t(x) of one table: a lookup when table is not NULL, else the Feistel
 * network over 2 * half_bits bits, cycle-walked back into [0, domain). */
static int64_t permute(int64_t x, const int64_t *table, const int64_t *keys,
                       int64_t n_keys, int64_t half_bits, int64_t domain)
{
    if (table != NULL)
        return table[x];
    uint64_t mask = ((uint64_t)1 << half_bits) - 1, y = (uint64_t)x;
    do {
        uint64_t left = (y >> half_bits) & mask, right = y & mask;
        for (int64_t k = 0; k < n_keys; k++) {
            uint64_t next = left ^ (feistel_round(right, (uint64_t)keys[k]) & mask);
            left = right;
            right = next;
        }
        y = (left << half_bits) | right;
    } while (y >= (uint64_t)domain);
    return (int64_t)y;
}

/* Slots and payloads of a group of sets sharing the range r, as
 * repro.core.bulk_build.bulk_place_group derives them: for element i of set
 * s in table t, slots[t * n + i] = (pi_t(x) & (r - 1)) + 3 r s + t r and
 * payloads[t * n + i] = (pi_t(x) >> shift) + 1.  Table t is a lookup table
 * (tables[t]) or, when that is NULL, the Feistel keys keys[t * n_keys ...]
 * with half width half_bits[t].  Returns 0, or -1 when an element lies
 * outside [0, domain) (nothing is hashed then). */
int64_t hash_group(const int64_t *elements, int64_t n, const int64_t *lengths,
                   int64_t n_sets, int64_t r, int64_t shift, const int64_t *table0,
                   const int64_t *table1, const int64_t *table2, const int64_t *keys,
                   int64_t n_keys, const int64_t *half_bits, int64_t domain,
                   int32_t *slots, int64_t *payloads)
{
    const int64_t *tables[3] = {table0, table1, table2};
    for (int64_t i = 0; i < n; i++)
        if (elements[i] < 0 || elements[i] >= domain)
            return -1;
    for (int t = 0; t < 3; t++) {
        int64_t i = 0;
        for (int64_t s = 0; s < n_sets; s++) {
            int64_t base = 3 * r * s + t * r;
            for (int64_t stop = i + lengths[s]; i < stop; i++) {
                int64_t p = permute(elements[i], tables[t], keys + t * n_keys, n_keys,
                                    half_bits[t], domain);
                slots[t * n + i] = (int32_t)((p & (r - 1)) + base);
                payloads[t * n + i] = (p >> shift) + 1;
            }
        }
    }
    return 0;
}

/* Clear the stored copies of element e from a set's region. */
static void remove_slots(int64_t e, const int32_t *slots, int64_t n_total,
                         int64_t base, int32_t *rows)
{
    for (int t = 0; t < 3; t++) {
        int32_t *cell = rows + (slots[t * n_total + e] - base);
        if (*cell == (int32_t)e)
            *cell = EMPTY;
    }
}

/* One copy of the serial INSERT walk over group slots (see insert_once). */
static int64_t insert_slots(int64_t x, const int32_t *slots, int64_t n_total,
                            int64_t base, int64_t max_loop, int32_t *rows)
{
    int64_t tau = x;
    for (int64_t loop = 0; loop < max_loop && tau != EMPTY; loop++)
        for (int t = 0; t < 3; t++) {
            int32_t *cell = rows + (slots[t * n_total + tau] - base);
            int64_t out = *cell;
            *cell = (int32_t)tau;
            tau = out;
            if (tau == EMPTY)
                break;
        }
    return tau;
}

/* walk_set on one set of a group: elements [first, first + n) of the
 * (3, n_total) group slots, whose region starts at slot base.  rows is that
 * region (3r cells, filled with flat element indices or EMPTY); failed
 * receives the failed flat indices in the order they were recorded (at most
 * 2n).  The same walk as walk_set, so placements and failures agree with
 * repro.core.builder.place_set.  Returns the number of failed entries. */
int64_t walk_slots(const int32_t *slots, int64_t n_total, int64_t first, int64_t n,
                   int64_t base, int64_t r, int64_t max_loop, int32_t *rows,
                   int64_t *failed)
{
    int64_t n_failed = 0;
    for (int64_t k = 0; k < 3 * r; k++)
        rows[k] = EMPTY;
    for (int64_t x = first; x < first + n; x++)
        for (int copy = 0; copy < 2; copy++) {
            int64_t nestless = insert_slots(x, slots, n_total, base, max_loop, rows);
            if (nestless == EMPTY)
                continue;
            remove_slots(x, slots, n_total, base, rows);
            failed[n_failed++] = x;
            if (nestless != x) {
                int64_t victim = insert_slots(nestless, slots, n_total, base, max_loop, rows);
                if (victim != EMPTY) {
                    remove_slots(victim, slots, n_total, base, rows);
                    failed[n_failed++] = victim;
                }
            }
            break;
        }
    return n_failed;
}

/* The Figure-4 interleave of repro.core.bulk_build.pack_group_words: entries
 * holds n_sets (3, r) byte rows; row s lands at out + s * row_bytes as r / r0
 * blocks of the three tables' r0 bytes each.  Bytes past 3r are left alone
 * (the caller zeroes the padding). */
void interleave_rows(const uint8_t *entries, int64_t n_sets, int64_t r, int64_t r0,
                     uint8_t *out, int64_t row_bytes)
{
    for (int64_t s = 0; s < n_sets; s++) {
        const uint8_t *row = entries + 3 * r * s;
        uint8_t *dst = out + row_bytes * s;
        for (int64_t b = 0; b < r / r0; b++)
            for (int t = 0; t < 3; t++)
                memcpy(dst + (3 * b + t) * r0, row + t * r + b * r0, (size_t)r0);
    }
}
