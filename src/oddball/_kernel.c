/* Compiled slot loop of oddball.policy.run_trial, for every trial on a numpy Generator.

   Each function below repeats a Python reference operation for operation,
   in the same order, so results are bitwise those of the Python loop:
   glr._scores, glr._z_min_from_scores and glr._pick_leader for the scores
   and the leader, policy._stops and policy._next_action for the stop rule
   and the next action, and solver._root_scalar with numerics.poisson_kl
   for a weight the memo does not hold yet. Draws are the calls numpy's
   Generator makes for rng.poisson, rng.random and rng.integers, on the
   caller's bit generator or on a port of numpy's PCG64 seeded as
   default_rng([*prefix, trial]) seeds it. Build with -ffp-contract=off: a
   fused multiply-add rounds differently.
   log, log1p and sqrt are the C library's, as in Python's math module;
   lgamma is a port of CPython's own (oddball_lgamma). lgamma(y + 1) and
   log(n + 1) are kept in two tables that each oddball_block call fills
   lazily, up to par[P_TABLE_CAP] entries, and frees; the caller's memo
   holds only weight cells. The scores are updated incrementally: a slot
   changes only the observed process's own terms of glr._scores, so those
   are cached per process and each slot recomputes only the pooled-others
   terms, every sum in glr._scores' order. Event totals stay below 2^53,
   where int64 tallies and float64 trace rows are exact: a trial that
   would pass it is declined, and Python reruns it. Shared constants come
   from Python in `par`; the P_, S_, T_ and G_ enums below are layouts
   policy.py mirrors. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

/* Slots of the int64 state array; visits[k] and events[k] follow. */
enum { S_M, S_ACTION, S_LEADER, S_TOTAL, S_STOPPED, S_LOOKUPS, S_MISSES, S_HEAD };

/* Columns of a trace row, one row per slot. */
enum { T_ACTION, T_COUNT, T_LEADER, T_Z_LEADER, T_WIDTH };

/* Slots of `par`: policy._QUANT, _MEMO_CELLS, _TABLE_CAP and
   DEGENERATE_ESTIMATE_GAP, solver NEAR_DEGENERATE_NU, DEFAULT_TOL and
   _MIN_BRACKET, numerics _SERIES_RADIUS, then the count and values of
   _LOG1P_TAIL_COEFFS. */
enum { P_QUANT, P_CELLS, P_TABLE_CAP, P_GAP, P_NEAR_NU, P_TOL, P_BRACKET, P_RADIUS, P_NCOEFFS,
       P_COEFFS };

/* Slots of a generator array: numpy's PCG64.state, each 128-bit value
   as its high word, then its low word (the order get128 reads). */
enum { G_STATE_HI, G_STATE_LO, G_INC_HI, G_INC_LO, G_HAS_UINT32, G_UINTEGER, G_SIZE };

#define PCG_MULT ((__uint128_t)2549297995355413924ULL << 64 | 4865540595714422341ULL)

/* The 128-bit value of a[0] (high word) and a[1] (low word), and its store. */
static __uint128_t get128(const uint64_t *a) { return (__uint128_t)a[0] << 64 | a[1]; }
static void put128(uint64_t *a, __uint128_t v) { a[0] = (uint64_t)(v >> 64), a[1] = (uint64_t)v; }

/* numpy's PCG64 on a generator array: the XSL-RR output of a 128-bit
   LCG, and the spare half of a 64-bit draw kept for the next 32-bit one. */
static uint64_t pcg_next64(void *p) {
    uint64_t *g = p;
    put128(g + G_STATE_HI, get128(g + G_STATE_HI) * PCG_MULT + get128(g + G_INC_HI));
    uint64_t x = g[G_STATE_HI] ^ g[G_STATE_LO];
    unsigned r = (unsigned)(g[G_STATE_HI] >> 58);
    return (x >> r) | (x << ((-r) & 63));
}

static uint32_t pcg_next32(void *p) {
    uint64_t *g = p;
    if (g[G_HAS_UINT32]) {
        g[G_HAS_UINT32] = 0;
        return (uint32_t)g[G_UINTEGER];
    }
    uint64_t x = pcg_next64(g);
    g[G_HAS_UINT32] = 1;
    g[G_UINTEGER] = x >> 32;
    return (uint32_t)x;
}

static double pcg_next_double(void *p) {
    return (double)(pcg_next64(p) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hashmix and mix on 32-bit words. */
static uint32_t hashmix(uint32_t v, uint32_t *h) {
    v ^= *h;
    *h *= 0x931e8875u;
    v *= *h;
    return v ^ (v >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* Seed g as PCG64(SeedSequence([*v[0..n), last])) does, n <= 2, each
   value below 2^64: the entropy is each value's 32-bit words, low first
   (one word below 2^32), mixed into a pool of four; generate_state(4,
   uint64) of the pool gives s, whose words seed the state (s[0], s[1])
   and the increment (s[2], s[3]). */
static void pcg_seed(uint64_t *g, const uint64_t *v, int64_t n, uint64_t last) {
    uint32_t w[6], pool[4], h = 0x43b0d7e5u;
    uint64_t s[4] = {0};
    int nw = 0;
    for (int64_t j = 0; j <= n; j++) {
        uint64_t x = j < n ? v[j] : last;
        w[nw++] = (uint32_t)x;
        if (x >> 32) w[nw++] = (uint32_t)(x >> 32);
    }
    for (int i = 0; i < 4; i++) pool[i] = hashmix(i < nw ? w[i] : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int d = 0; d < 4; d++)
            if (src != d) pool[d] = mix(pool[d], hashmix(pool[src], &h));
    for (int src = 4; src < nw; src++)
        for (int d = 0; d < 4; d++) pool[d] = mix(pool[d], hashmix(w[src], &h));
    h = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t x = pool[i % 4] ^ h;
        h *= 0x58f38dedu;
        x *= h;
        s[i / 2] |= (uint64_t)(x ^ (x >> 16)) << (32 * (i % 2));
    }
    memset(g, 0, sizeof(*g) * G_SIZE);
    put128(g + G_INC_HI, get128(s + 2) << 1 | 1);
    pcg_next64(g);
    put128(g + G_STATE_HI, get128(g + G_STATE_HI) + get128(s));
    pcg_next64(g);
}

/* For tests: seed `gen` from values[0..n) (n <= 3) when n > 0, then
   make `count` draws into out, of next_uint32 if bits is 32, else of
   next_uint64. */
void oddball_draw(const uint64_t *values, int64_t n, uint64_t *gen, int64_t bits, int64_t count,
                  uint64_t *out) {
    if (n > 0) pcg_seed(gen, values, n - 1, values[n - 1]);
    for (int64_t i = 0; i < count; i++) out[i] = bits == 32 ? pcg_next32(gen) : pcg_next64(gen);
}

/* CPython's m_lgamma (Modules/mathmodule.c) at x = y + 1, y >= 0, in its
   order of operations: the Lanczos sum num/den, by Horner in x below 5
   and in 1/x from 5 on, then the Lanczos formula. Exported for tests. */
static const double LANCZOS_NUM[13] = {
    23531376880.410759688572007674451636754734846804940,
    42919803642.649098768957899047001988850926355848959,
    35711959237.355668049440185451547166705960488635843,
    17921034426.037209699919755754458931112671403265390,
    6039542586.3520280050642916443072979210699388420708,
    1439720407.3117216736632230727949123939715485786772,
    248874557.86205415651146038641322942321632125127801,
    31426415.585400194380614231628318205362874684987640,
    2876370.6289353724412254090516208496135991145378768,
    186056.26539522349504029498971604569928220784236328,
    8071.6720023658162106380029022722506138218516325024,
    210.82427775157934587250973392071336271166969580291,
    2.5066282746310002701649081771338373386264310793408};
static const double LANCZOS_DEN[13] = {0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0,
    45995730.0, 13339535.0, 2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0};

double oddball_lgamma(int64_t y) {
    const double g = 6.024680040776729583740234375;
    double x = (double)(y + 1), num = 0.0, den = 0.0;
    if (y <= 1) return 0.0;
    for (int i = 0; i < 13; i++) {
        if (x < 5.0) {
            num = num * x + LANCZOS_NUM[12 - i];
            den = den * x + LANCZOS_DEN[12 - i];
        } else {
            num = num / x + LANCZOS_NUM[i];
            den = den / x + LANCZOS_DEN[i];
        }
    }
    return log(num / den) - g + (x - 0.5) * (log(x + g - 0.5) - 1.0);
}

/* numerics._u_minus_log1p: u - log(1 + u), by series near 0. */
static double u_minus_log1p(double u, const double *par) {
    if (u > par[P_RADIUS] || u < -par[P_RADIUS]) return u - log1p(u);
    double p = 0.0;
    for (int64_t j = 0; j < (int64_t)par[P_NCOEFFS]; j++) p = p * u + par[P_COEFFS + j];
    return u * u * p;
}

/* numerics.poisson_kl for x >= 0, y > 0. */
static double poisson_kl(double x, double y, const double *par) {
    if (x == 0.0) return y;
    double u = (y - x) / x;
    if (isinf(u) || u <= -1.0) return x * (log(x) - log(y)) - x + y;
    return x * u_minus_log1p(u, par);
}

/* solve_lambda_star(OddConfig(k, 1, q / quant, 1 - q / quant)).lam_odd:
   solver._root_scalar, then solver._lam_odd_from_hat. The sign-change
   check of _root_scalar always passes on this grid: the rates differ by
   at least 2 / quant except at q = quant / 2, which takes the
   equal-rates weight. */
static double lam_odd_at(int64_t q, double rho, const double *par) {
    double a = (double)q / par[P_QUANT], b = 1.0 - a;
    double x = 1.0 / (1.0 + sqrt(rho));
    if (fabs(a / (a + b) - 0.5) >= par[P_NEAR_NU]) {
        double lo = 0.0, hi = 1.0, step = 1.0;
        for (;;) {
            double m = x * a + (1.0 - x) * b;
            double d1 = poisson_kl(a, m, par), t2 = rho * poisson_kl(b, m, par);
            double slope = (a - b) * ((1.0 - a / m) - rho * (1.0 - b / m));
            double g = d1 - t2;
            if (fabs(g) <= par[P_TOL] * (d1 > t2 ? d1 : t2)) break;
            if (g > 0.0) lo = x; else hi = x;
            if (hi - lo < par[P_BRACKET]) break;
            double nxt = slope < 0.0 ? x - g / slope : x;
            if (!(lo < nxt && nxt < hi && fabs(nxt - x) <= 0.5 * step)) nxt = 0.5 * (lo + hi);
            step = fabs(nxt - x);
            x = nxt;
        }
    }
    return x * rho / (1.0 - x + x * rho);
}

/* lam_odd_at for the weight memo of k, exported for tests. */
double oddball_lam_odd(int64_t k, int64_t q, const double *par) {
    return lam_odd_at(q, (double)(k - 2) / (double)(k - 1), par);
}

/* log(n + 1), the table entry of a visit count n. */
static double log_plus_one(int64_t n) { return log((double)(n + 1)); }

/* A table of fill(i) for i < len, in a buffer of size entries that
   grows by doubling up to cap. Past cap, or when realloc fails, an
   entry is computed and not stored. */
typedef struct {
    double *values;
    int64_t len, size, cap;
    double (*fill)(int64_t);
} table_t;

static double table_at(table_t *t, int64_t i) {
    if (i < t->len) return t->values[i];
    if (i >= t->cap) return t->fill(i);
    if (i >= t->size) {
        int64_t size = t->size ? t->size : 64;
        while (size <= i) size *= 2;
        if (size > t->cap) size = t->cap;
        double *values = realloc(t->values, sizeof(*values) * size);
        if (values) t->values = values, t->size = size;
    }
    for (; t->len <= i && t->len < t->size; t->len++) t->values[t->len] = t->fill(t->len);
    return i < t->len ? t->values[i] : t->fill(i);
}

/* Run one trial until it stops or reaches max_slots, or decline it (slot
   count 0) when a draw would take its event total to 2^53. Its state goes
   to `st`, the scores of its last slot to z[0..k), and z[k..3k) is
   scratch. The memo: weights holds par[P_CELLS] cells (q, lambda*(k, q /
   quant)), cell q % par[P_CELLS] the last q that mapped to it, key 0.0
   when empty. lg holds lgamma(y + 1) for event totals y and lt log(n + 1)
   for slot counts n. Snapshot c of the sorted slots `cps` goes to
   snap_i[c * (2 + 2k)] (leader, total, visits, events) and snap_z[c * k];
   slot m's T_ row to trace[(m - 1) * T_WIDTH] while m <= nrows. */
static void oddball_trial(bitgen_t *bg, int64_t k, int64_t max_slots, int64_t stopping,
                         double log_threshold, const double *rates, int64_t *st, double *z,
                         double *weights, table_t *lg, table_t *lt, const int64_t *cps, int64_t ncp,
                         int64_t *snap_i, double *snap_z, double *trace, int64_t nrows,
                         const double *par) {
    memset(st, 0, sizeof(*st) * (S_HEAD + 2 * k));
    int64_t *visits = st + S_HEAD, *events = visits + k;
    /* Each process's own terms of glr._scores, updated when it is observed:
       own_avg = lgamma(y + 1) - (y + 1) log(n + 1) and own_ml =
       0.0 (+ y (log(y / n) - 1) when y > 0). Both are 0.0 at y = n = 0. */
    double *own_avg = z + k, *own_ml = z + 2 * k;
    memset(own_avg, 0, sizeof(*z) * 2 * k);
    int64_t m = 0, action = 1, leader = 1, total = 0, ci = 0;
    double rho = (double)(k - 2) / (double)(k - 1);
    while (m < max_slots) {
        int64_t x = random_poisson(bg, rates[action - 1]);
        if (x >= ((int64_t)1 << 53) - total) {
            m = 0;
            break;
        }
        m++;
        visits[action - 1]++;
        events[action - 1] += x;
        total += x;
        int64_t ya = events[action - 1], na = visits[action - 1];
        own_avg[action - 1] = table_at(lg, ya) - (double)(ya + 1) * table_at(lt, na);
        own_ml[action - 1] = ya > 0 ? 0.0 + (double)ya * (log((double)ya / (double)na) - 1.0) : 0.0;

        /* Scores: z = avg - max_{j != i} ml_j via the top two of ml, with
           each sum in glr._scores' order: (own_avg + lgamma(yo + 1)) -
           (yo + 1) log(no + 1), and own_ml + yo (log(yo / no) - 1). */
        double m1 = -INFINITY, m2 = -INFINITY;
        int64_t a1 = -1;
        for (int64_t i = 0; i < k; i++) {
            int64_t yo = total - events[i], no = m - visits[i];
            z[i] = own_avg[i] + table_at(lg, yo) - (double)(yo + 1) * table_at(lt, no);
            double t = own_ml[i];
            if (yo > 0) t += (double)yo * (log((double)yo / (double)no) - 1.0);
            if (t > m1) {
                m2 = m1;
                m1 = t;
                a1 = i;
            } else if (t > m2) {
                m2 = t;
            }
        }
        double best = -INFINITY;
        for (int64_t i = 0; i < k; i++) {
            z[i] -= i == a1 ? m2 : m1;
            if (z[i] > best) best = z[i];
        }

        /* Leader: the argmax, exact ties broken by one bounded draw. */
        uint64_t ties = 0, pick = 0;
        for (int64_t i = 0; i < k; i++) ties += z[i] == best;
        if (ties > 1) random_bounded_uint64_fill(bg, 0, ties - 1, 1, false, &pick);
        for (int64_t i = 0; i < k; i++) {
            if (z[i] == best && pick-- == 0) {
                leader = i + 1;
                break;
            }
        }

        if (trace && m <= nrows) {
            double *row = trace + (m - 1) * T_WIDTH;
            row[T_ACTION] = (double)action, row[T_COUNT] = (double)x;
            row[T_LEADER] = (double)leader, row[T_Z_LEADER] = z[leader - 1];
        }
        if (ci < ncp && cps[ci] == m) {
            int64_t *s = snap_i + ci * (2 + 2 * k);
            s[0] = leader;
            s[1] = total;
            for (int64_t i = 0; i < 2 * k; i++) s[2 + i] = visits[i];
            for (int64_t i = 0; i < k; i++) snap_z[ci * k + i] = z[i];
            ci++;
        }
        if (stopping && z[leader - 1] >= log_threshold) {
            st[S_STOPPED] = 1;
            break;
        }

        /* Next action: round-robin in warm-up, else uniform when the
           leader's estimates are unusable or degenerate, else weighted. */
        if (m < k) {
            action = m + 1;
            continue;
        }
        int64_t yi = events[leader - 1], ni = visits[leader - 1], no = m - ni;
        double t1 = ni > 0 ? (double)yi / (double)ni : 0.0;
        double t2 = no > 0 ? (double)(total - yi) / (double)no : 0.0;
        if (t1 <= 0.0 || t2 <= 0.0 || fabs(t1 - t2) < par[P_GAP]) {
            int64_t idx = (int64_t)(next_double(bg) * (double)k);
            action = (idx > k - 1 ? k - 1 : idx) + 1;
            continue;
        }
        st[S_LOOKUPS]++;
        double quant = par[P_QUANT], qd = rint(t1 / (t1 + t2) * quant);
        int64_t q = qd < 1.0 ? 1 : qd > quant - 1.0 ? (int64_t)quant - 1 : (int64_t)qd;
        double *cell = weights + 2 * (q & ((int64_t)par[P_CELLS] - 1)), lam = cell[1];
        if (cell[0] != (double)q) {
            st[S_MISSES]++;
            cell[0] = (double)q;
            lam = cell[1] = lam_odd_at(q, rho, par);
        }
        double u = next_double(bg);
        if (u < lam) {
            action = leader;
        } else {
            int64_t idx = (int64_t)((u - lam) / (1.0 - lam) * (double)(k - 1));
            if (idx > k - 2) idx = k - 2;
            action = idx + 1 < leader ? idx + 1 : idx + 2;
        }
    }
    st[S_M] = m;
    st[S_ACTION] = action;
    st[S_LEADER] = leader;
    st[S_TOTAL] = total;
}

/* Run trials 0..n-1 as oddball_trial does: trial i on the bit generator
   `caller` if given (n is then 1), else on the array that `words` starts
   with, seeded as default_rng([*p, t]) seeds it, p the nprefix values and
   t the ith of the n values after the array. Its stopping slot, final
   leader and capped flag go to out[i], out[n + i] and out[2n + i], its ncp
   snapshots to snap_i + i * ncp * (2 + 2k) and snap_z + i * ncp * k, its
   trace rows after trial i - 1's, up to nrows in all. The weight lookups
   and memo misses of all n trials go to out[3n] and out[3n + 1]. The
   call's lgamma and log tables are freed before it returns. */
void oddball_block(int64_t n, int64_t ncp, double *trace, int64_t nrows, bitgen_t *caller,
                   uint64_t *words, int64_t nprefix, int64_t k, int64_t max_slots,
                   int64_t stopping, double log_threshold, const double *rates, int64_t *st,
                   double *z, double *weights, const int64_t *cps, int64_t *snap_i,
                   double *snap_z, const double *par, int64_t *out) {
    bitgen_t seeded = {words, pcg_next64, pcg_next32, pcg_next_double, pcg_next64};
    table_t lg = {NULL, 0, 0, (int64_t)par[P_TABLE_CAP], oddball_lgamma};
    table_t lt = {NULL, 0, 0, (int64_t)par[P_TABLE_CAP], log_plus_one};
    bitgen_t *bg = caller ? caller : &seeded;
    out[3 * n] = out[3 * n + 1] = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!caller) pcg_seed(words, words + G_SIZE, nprefix, words[G_SIZE + nprefix + i]);
        oddball_trial(bg, k, max_slots, stopping, log_threshold, rates, st, z, weights, &lg, &lt,
                      cps, ncp, snap_i + i * ncp * (2 + 2 * k), snap_z + i * ncp * k, trace,
                      nrows, par);
        out[i] = st[S_M];
        out[n + i] = st[S_LEADER];
        out[2 * n + i] = !st[S_STOPPED];
        out[3 * n] += st[S_LOOKUPS];
        out[3 * n + 1] += st[S_MISSES];
        int64_t rows = st[S_M] < nrows ? st[S_M] : nrows;
        if (trace) trace += rows * T_WIDTH, nrows -= rows;
    }
    free(lg.values);
    free(lt.values);
}
