
/* The Kaczmarz sweep.  Every product sums in one fixed order: eight running sums,
   lane j taking the products with k = j mod 8 in increasing k, the tail (K mod 8
   products) added to lane 0 in increasing k, each product rounded before its add,
   then ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)).  One routine forms the
   products of each operand shape: pnkr_dot two vectors (the gate norm's vdot),
   pnkr_rows a matrix and one contiguous column (a gate's U q_r, a momentum step's
   U_{k-1} q_r and the spatial product S d), and pnkr_block a matrix and eight
   columns through a panel (the gate norm sqrt(vdot(X, A1 X A2))'s T = A1 X and
   T A2, and the end-of-sweep U Q).  Every array is row-major but the L x R tables Q
   and P, which are column-major, so that column r of each is read in place.
   The step pass rounds each entry like OpenBLAS's k=1 dgemm followed, for c > 0,
   by a daxpy of (1 + c) u, the sequence the tests keep as the reference:
   x = (p a) alpha, then u + x, or fma(1 + c, u, fma(-c, o, x)) with o the
   previous iterate.  The projection keeps t when t > 0 or t is NaN and stores +0
   otherwise, as np.maximum(t, 0.0) does.  Given a column q the pass also writes
   the next gate's product g = out q from the values it stores.  u and out may be
   one array when c = 0, so neither is restrict.  -ffp-contract=off keeps the
   compiler from fusing an add with a product into an fma.  Given par, each
   product and the pass split their rows over OpenMP threads; every row keeps its
   order, so no bit depends on the thread count. */
#include <math.h>
#include <omp.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

const char *pnkr_step_compiler(void) { return __VERSION__; }

int pnkr_threads(void) { return omp_get_max_threads(); }

static inline double pnkr_lanes(const double *s)
{
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

static double pnkr_dot(const double *x, const double *y, size_t n)
{
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    size_t l = 0;
    for (; l + 8 <= n; l += 8)
        for (size_t j = 0; j < 8; j++)
            s[j] += x[l + j] * y[l + j];
    for (; l < n; l++)
        s[0] += x[l] * y[l];
    return pnkr_lanes(s);
}

typedef double pnkr_v8 __attribute__((vector_size(64)));

static inline pnkr_v8 pnkr_load(const double *p)
{
    pnkr_v8 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline pnkr_v8 pnkr_lanes8(const pnkr_v8 *s)
{
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* G[:, r0:r0+8] = U Q[:, r0:r0+8] for an N x L U and an L x R Q with entry (l, r) at
   Q[l * rs + r * cs], the columns past R left out, on one thread: the end-of-sweep U Q
   and both products of the gate norm.  The columns are first copied, zero-padded, into
   the panel (L x 8, on 64-byte boundaries: loads across cache lines made this product
   about 25% slower), and two rows of U at a time run against it with the eight lanes of
   each entry in eight vectors */
static void pnkr_block(const double *u, const double *Q, size_t rs, size_t cs, double *G, size_t N, size_t L, size_t R, size_t r0, double *panel)
{
    size_t nr = R - r0 < 8 ? R - r0 : 8;
    for (size_t l = 0; l < L; l++)
        for (size_t k = 0; k < 8; k++)
            panel[l * 8 + k] = k < nr ? Q[l * rs + (r0 + k) * cs] : 0.0;
    for (size_t n0 = 0; n0 < N; n0 += 2) {
        size_t nn = N - n0 < 2 ? 1 : 2;
        const double *u0 = u + n0 * L, *u1 = u + (n0 + nn - 1) * L;
        pnkr_v8 s0[8], s1[8];
        for (size_t j = 0; j < 8; j++)
            s0[j] = s1[j] = (pnkr_v8){0.0};
        size_t l = 0;
        for (; l + 8 <= L; l += 8)
            for (size_t j = 0; j < 8; j++) {
                pnkr_v8 q = pnkr_load(panel + (l + j) * 8);
                s0[j] += u0[l + j] * q;
                s1[j] += u1[l + j] * q;
            }
        for (; l < L; l++) {
            pnkr_v8 q = pnkr_load(panel + l * 8);
            s0[0] += u0[l] * q;
            s1[0] += u1[l] * q;
        }
        pnkr_v8 g[2] = {pnkr_lanes8(s0), pnkr_lanes8(s1)};
        for (size_t i = 0; i < nn; i++)
            for (size_t k = 0; k < nr; k++)
                G[(n0 + i) * R + r0 + k] = g[i][k];
    }
}

/* g = u q for an n_rows x n_cols u, in pnkr_dot's order with the eight lanes of a row
   in one vector; four rows at a time keep four sums in flight, which made a desk-size
   product about twice as fast as one row at a time */
static void pnkr_rows(const double *u, const double *q, double *g, size_t n_rows, size_t n_cols)
{
    size_t blocks = (n_rows + 3) / 4;
#pragma omp for schedule(static)
    for (size_t b = 0; b < blocks; b++) {
        size_t n0 = 4 * b, nn = n_rows - n0 < 4 ? n_rows - n0 : 4, l = 0;
        const double *x0 = u + n0 * n_cols, *x1 = x0 + (nn > 1) * n_cols;
        const double *x2 = x0 + (nn > 2) * 2 * n_cols, *x3 = x0 + (nn > 3) * 3 * n_cols;
        pnkr_v8 s[4] = {{0.0}, {0.0}, {0.0}, {0.0}};
        for (; l + 8 <= n_cols; l += 8) {
            pnkr_v8 qv = pnkr_load(q + l);
            s[0] += pnkr_load(x0 + l) * qv;
            s[1] += pnkr_load(x1 + l) * qv;
            s[2] += pnkr_load(x2 + l) * qv;
            s[3] += pnkr_load(x3 + l) * qv;
        }
        double t[4][8];
        memcpy(t, s, sizeof t);
        for (; l < n_cols; l++) {
            t[0][0] += x0[l] * q[l];
            t[1][0] += x1[l] * q[l];
            t[2][0] += x2[l] * q[l];
            t[3][0] += x3[l] * q[l];
        }
        for (size_t i = 0; i < nn; i++)
            g[n0 + i] = pnkr_lanes(t[i]);
    }
}

/* sqrt(vdot(X, A1 X A2)) for the n1 x n2 sample grid X: T = A1 X, then W = T A2, eight
   columns at a time; T and W hold n1 n2 entries, the panel 8 max(n1, n2) */
static double pnkr_norm(const double *X, const double *A1, size_t n1, const double *A2, size_t n2, double *T, double *W, double *panel)
{
    for (size_t j0 = 0; j0 < n2; j0 += 8)
        pnkr_block(A1, X, n2, 1, T, n1, n1, n2, j0, panel);
    for (size_t j0 = 0; j0 < n2; j0 += 8)
        pnkr_block(T, A2, n2, 1, W, n1, n2, n2, j0, panel);
    return sqrt(pnkr_dot(X, W, n1 * n2));
}

static inline double pnkr_entry(int momentum, double c, double u, double o, double x)
{
    double t = momentum ? fma(1.0 + c, u, fma(-c, o, x)) : u + x;
    return (t > 0.0 || t != t) ? t : 0.0;
}

static inline double pnkr_row(int momentum, const double *un, double *on, size_t n_cols, double c,
                              double alpha, double an, const double *p, const double *q)
{
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    size_t l = 0;
    if (q)
        for (; l + 8 <= n_cols; l += 8)
            for (size_t j = 0; j < 8; j++) {
                on[l + j] = pnkr_entry(momentum, c, un[l + j], on[l + j], (p[l + j] * an) * alpha);
                s[j] += on[l + j] * q[l + j];
            }
    for (; l < n_cols; l++) {
        on[l] = pnkr_entry(momentum, c, un[l], on[l], (p[l] * an) * alpha);
        if (q) s[0] += on[l] * q[l];
    }
    return pnkr_lanes(s);
}

static void pnkr_pass(const double *u, double *out, size_t n_rows, size_t n_cols, double c,
                      double alpha, const double *a, const double *p, const double *q, double *g)
{
#pragma omp for schedule(static)
    for (size_t n = 0; n < n_rows; n++) {
        const double *un = u + n * n_cols;
        double *on = out + n * n_cols;
        double s = c == 0.0 ? pnkr_row(0, un, on, n_cols, c, alpha, a[n], p, q)
                            : pnkr_row(1, un, on, n_cols, c, alpha, a[n], p, q);
        if (q) g[n] = s;
    }
}

/* One equation's plain step in one parallel region, as a sweep takes it at c = 0:
   a = S d (S the C-ordered n_rows x n_rows spatial factor, a a work array of n_rows
   entries), then the pass with column p */
void pnkr_step(const double *u, double *out, size_t n_rows, size_t n_cols, double alpha,
               const double *S, const double *d, double *a, const double *p, int par)
{
#pragma omp parallel if (par)
    {
        pnkr_rows(S, d, a, n_rows, n_rows);
        pnkr_pass(u, out, n_rows, n_cols, 0.0, alpha, a, p, NULL, NULL);
    }
}

/* One sweep in one parallel region: each equation r of the order is gated with column r
   of Q and, when active, stepped with a = S d (S the N x N spatial factor) and column r
   of P, after which u and o swap.  Returns the update count, -1 when a gate norm, or the
   last update's product with a zero column, is not finite, or -2 when the work arrays
   cannot be allocated. */
long pnkr_sweep(double *u, double *o, size_t N, size_t L, size_t R, const double *y, const double *Q,
                const double *A1, size_t n1, const double *A2, size_t n2, const int64_t *order,
                const double *limits, const double *P, const double *S, double c, double alpha, int par)
{
    if (!R)
        return 0;
    /* each work array starts on a 64-byte boundary, as the iterate's rows do */
    size_t Lp = (L + 7) / 8 * 8, Np = (N + 7) / 8 * 8, K = n1 > n2 ? n1 : n2;
    double *w = aligned_alloc(64, sizeof(double) * (Lp + 6 * Np + 8 * K));
    if (!w)
        return -2;
    double *zero = w, *g = zero + Lp, *D = g + Np, *d = D + Np, *a = d + Np, *T = a + Np, *W = T + Np, *panel = W + Np;
    long updates = 0;
    int filled = 0, status = 0;
    memset(zero, 0, L * sizeof(double));
#pragma omp parallel if (par)
    {
        for (size_t i = 0; i < R; i++) {
            size_t r = (size_t)order[i];
            const double *q = Q + r * L;
            if (!filled)
                pnkr_rows(u, q, g, N, L);
#pragma omp single
            {
                for (size_t n = 0; n < N; n++)
                    D[n] = y[n * R + r] - g[n];
                double norm = pnkr_norm(D, A1, n1, A2, n2, T, W, panel);
                status = isfinite(norm) ? !(norm <= limits[r]) : -1;
            }
            int active = status;
            if (active < 0)
                break;
            if (active) {
                if (c != 0.0) {
                    pnkr_rows(o, q, d, N, L);
#pragma omp single
                    for (size_t n = 0; n < N; n++)
                        d[n] = (D[n] - (y[n * R + r] - d[n])) * c + D[n];
                }
                pnkr_rows(S, c != 0.0 ? d : D, a, N, N);
                pnkr_pass(u, o, N, L, c, alpha, a, P + r * L, i + 1 < R ? Q + (size_t)order[i + 1] * L : zero, g);
            }
#pragma omp single
            {
                if (active) {
                    double *t = u;
                    u = o, o = t, updates++;
                }
                filled = active;
            }
        }
#pragma omp single
        if (status >= 0 && filled)
            for (size_t n = 0; n < N; n++)
                if (!isfinite(g[n]))
                    status = -1;
    }
    free(w);
    return status < 0 ? -1 : updates;
}

/* G = U Q (N x R) for the column-major Q, this thread's share of the blocks of eight columns */
static void pnkr_table(const double *u, const double *Q, double *G, size_t N, size_t L, size_t R, double *panel)
{
#pragma omp for schedule(static)
    for (size_t r0 = 0; r0 < R; r0 += 8)
        pnkr_block(u, Q, 1, L, G, N, L, R, r0, panel);
}

/* norms[r] = sqrt(vdot(X, A1 X A2)) of X = y[:, r] - U q_r for every r; the table
   U Q, one panel and one set of work rows per thread are allocated before the
   parallel region.  Returns -2 when they cannot be. */
int pnkr_residual_norms(const double *u, size_t N, size_t L, size_t R, const double *y, const double *Q,
                        const double *A1, size_t n1, const double *A2, size_t n2, double *norms, int par)
{
    size_t threads = par ? (size_t)omp_get_max_threads() : 1, K = L > n1 ? L : n1, P = 8 * (K > n2 ? K : n2);
    double *G = malloc(sizeof(double) * N * R);
    double *panels = aligned_alloc(64, sizeof(double) * P * threads);
    double *work = malloc(sizeof(double) * 3 * N * threads);
    int status = G && panels && work ? 0 : -2;
    if (!status) {
#pragma omp parallel if (par)
        {
            size_t t = (size_t)omp_get_thread_num();
            double *X = work + 3 * N * t, *T = X + N, *W = T + N, *panel = panels + P * t;
            pnkr_table(u, Q, G, N, L, R, panel);
#pragma omp for schedule(static)
            for (size_t r = 0; r < R; r++) {
                for (size_t n = 0; n < N; n++)
                    X[n] = y[n * R + r] - G[n * R + r];
                norms[r] = pnkr_norm(X, A1, n1, A2, n2, T, W, panel);
            }
        }
    }
    free(G);
    free(panels);
    free(work);
    return status;
}
