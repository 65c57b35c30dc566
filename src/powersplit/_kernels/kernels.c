/* Compiled kernels: the explicit-duration backward pass, the forward segment
 * draw over its messages, and the three deterministic passes of the
 * factorial filter's step: the shifted joint-state predictive, its row
 * totals, and the advance of each particle through its conjugate posterior
 * to the Dirichlet posterior-mean rows the next step reads.
 *
 * Plain C99 with no Python or NumPy API. ``_compiled.py`` loads the library
 * with ctypes, checks every input and allocates every output and scratch
 * buffer; arrays here are C-contiguous, with shapes and the indices the
 * filter passes follow already verified by the loader.
 *
 * The backward pass walks j-major copies of its messages and running sums,
 * so each state's duration terms are contiguous, and takes each window's
 * max in four accumulators; every term and every sum keeps its order, so
 * the output is the one of the plain row-major loops, bit for bit.
 *
 * Build with -ffp-contract=off and without -ffast-math: the fbpf kernels are
 * bit-identical to the pure NumPy ones only when each expression below is
 * evaluated as written, with no fused multiply-add and no reassociation.
 * They use only + - * /, sqrt and comparisons, which IEEE 754 rounds as
 * NumPy does, and NumPy's pairwise sum (pairwise_sum); every exp and log of
 * the filter stays in NumPy, whose SIMD exp is not libm's.
 */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* exp(x) rounds to +0 below log(2^-1075) = -745.13 */
#define EXP_UNDERFLOW (-746.0)

/* log(sum(exp(a[0..n-1]))); -inf when every entry is -inf. The max runs
 * in four interleaved accumulators, which keeps its compare chain short and
 * gives the same value as one running max: a max is exact in any order, a
 * NaN is skipped by every compare, and where +0 and -0 tie the sum and the
 * result do not depend on which one won. Terms that exp() would round to
 * zero are skipped, which leaves the sum unchanged bit for bit; in a
 * duration window most terms are (99% in training sweeps). The sum adds the
 * rest in index order. */
static double logsumexp(const double *a, ptrdiff_t n)
{
    double m0 = -INFINITY, m1 = -INFINITY, m2 = -INFINITY, m3 = -INFINITY, s = 0.0;
    ptrdiff_t i = 0;
    for (; i + 4 <= n; i += 4) {
        m0 = a[i] > m0 ? a[i] : m0;
        m1 = a[i + 1] > m1 ? a[i + 1] : m1;
        m2 = a[i + 2] > m2 ? a[i + 2] : m2;
        m3 = a[i + 3] > m3 ? a[i + 3] : m3;
    }
    for (; i < n; i++)
        m0 = a[i] > m0 ? a[i] : m0;
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    double m = m2 > m0 ? m2 : m0;
    if (m == -INFINITY)
        return -INFINITY;
    for (i = 0; i < n; i++) {
        double x = a[i] - m;
        if (!(x < EXP_UNDERFLOW))  /* NaN still reaches exp() */
            s += exp(x);
    }
    return log(s) + m;
}

/* Explicit-duration backward messages, the loops of ``_pure.hsmm_backward``.
 *
 * logtrans_bar (J, J); logdur (J, ldur) with ldur >= dmax; logtail (J, ltail)
 * with ltail >= dmax + 1; cum (T + 1, J) the running sums of the emission
 * log-likelihoods, cum[0] = 0. Writes B (T + 1, J) and Bstar (T, J).
 *
 * A state's duration terms read B and cum down one column, so the pass
 * keeps j-major copies of both, Bj and cj (J, T + 1) at the head of buf,
 * and walks each state's terms contiguously; every term is the same
 * expression of the same values as in the row-major layout. buf holds at
 * least 2 J (T + 1) + max(min(T, dmax) + 1, J) doubles.
 */
void hsmm_backward(ptrdiff_t T, ptrdiff_t J, ptrdiff_t dmax,
                   const double *logtrans_bar,
                   const double *logdur, ptrdiff_t ldur,
                   const double *logtail, ptrdiff_t ltail,
                   const double *cum, double *B, double *Bstar, double *buf)
{
    ptrdiff_t n = T + 1;
    double *Bj = buf, *cj = buf + J * n, *terms = buf + 2 * J * n;
    for (ptrdiff_t t = 0; t <= T; t++)
        for (ptrdiff_t j = 0; j < J; j++)
            cj[j * n + t] = cum[t * J + j];
    for (ptrdiff_t j = 0; j < J; j++)
        B[T * J + j] = Bj[j * n + T] = 0.0;
    for (ptrdiff_t t = T - 1; t >= 0; t--) {
        ptrdiff_t span = T - t < dmax ? T - t : dmax;
        for (ptrdiff_t j = 0; j < J; j++) {
            const double *bt = Bj + j * n + t, *ct = cj + j * n + t, *dj = logdur + j * ldur;
            /* interior durations d = 1..span, then the censored remainder */
            for (ptrdiff_t d = 1; d <= span; d++)
                terms[d - 1] = (bt[d] + dj[d - 1]) + (ct[d] - ct[0]);
            terms[span] = logtail[j * ltail + span] + (cj[j * n + T] - ct[0]);
            Bstar[t * J + j] = logsumexp(terms, span + 1);
        }
        for (ptrdiff_t i = 0; i < J; i++) {
            for (ptrdiff_t j = 0; j < J; j++)
                terms[j] = logtrans_bar[i * J + j] + Bstar[t * J + j];
            B[t * J + i] = Bj[i * n + t] = logsumexp(terms, J);
        }
    }
}

/* Sum of a[0..n-1] in the order np.sum adds a contiguous float64 array:
 * numpy's pairwise summation, eight accumulators per block of at most 128. */
static double pairwise_sum(const double *a, ptrdiff_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - n % 8; i += 8)
            for (ptrdiff_t k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* The category that uniform u picks from the log weights x[0..n-1], as
 * ``distributions.categorical_pick_logits`` does: shift by the max,
 * exponentiate, normalise by the pairwise sum, then count the running sums
 * that do not exceed u (searchsorted side="right"), clamped to n - 1. The
 * running sums never decrease, so the first one above u ends the count.
 * Overwrites x; returns -1 when every entry is -inf. */
static ptrdiff_t categorical_pick(double *x, ptrdiff_t n, double u)
{
    double m = -INFINITY;
    for (ptrdiff_t i = 0; i < n; i++)
        if (x[i] > m)
            m = x[i];
    if (m == -INFINITY)
        return -1;
    for (ptrdiff_t i = 0; i < n; i++) {
        double d = x[i] - m;
        x[i] = d < EXP_UNDERFLOW ? 0.0 : exp(d);
    }
    double s = pairwise_sum(x, n), c = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        c += x[i] / s;
        if (c > u)
            return i;
    }
    return n - 1;
}

/* Forward segment draw over the backward messages, the loop of
 * ``_pure.hsmm_forward_sample``.
 *
 * loginit (J,) scores the first state, logpibar (J, J) each later one; B
 * (T + 1, J), Bstar (T, J), logdur, logtail and cum as in hsmm_backward with
 * window in place of dmax. Each segment reads two uniforms from u, which
 * holds at least 2 T: its state, then its duration or the censor column.
 * Writes the states to z and the durations to D, *nseg of each. A censor
 * pick ends the walk with *censored = 1 and the pick's span as the last
 * duration (the true one exceeds it). buf holds at least
 * max(min(T, window) + 1, J) doubles. Returns the uniforms used, or -1 when
 * a draw meets a row with no finite log weight.
 */
ptrdiff_t hsmm_forward_sample(ptrdiff_t T, ptrdiff_t J, ptrdiff_t window,
                              const double *loginit, const double *logpibar,
                              const double *B, const double *Bstar,
                              const double *logdur, ptrdiff_t ldur,
                              const double *logtail, ptrdiff_t ltail,
                              const double *cum, const double *u,
                              long long *z, long long *D, ptrdiff_t *nseg,
                              ptrdiff_t *censored, double *buf)
{
    ptrdiff_t used = 0, n = 0, t = 0;
    const double *row = loginit;
    *censored = 0;
    while (t < T) {
        const double *ct = cum + t * J;
        for (ptrdiff_t j = 0; j < J; j++)
            buf[j] = row[j] + Bstar[t * J + j];
        ptrdiff_t j = categorical_pick(buf, J, u[used++]);
        if (j < 0)
            return -1;
        ptrdiff_t span = T - t < window ? T - t : window;
        for (ptrdiff_t d = 1; d <= span; d++)
            buf[d - 1] = (B[(t + d) * J + j] + logdur[j * ldur + d - 1])
                         + (ct[d * J + j] - ct[j]);
        buf[span] = logtail[j * ltail + span] + (cum[T * J + j] - ct[j]);
        ptrdiff_t pick = categorical_pick(buf, span + 1, u[used++]);
        if (pick < 0)
            return -1;
        z[n] = j;
        if (pick == span) {
            D[n++] = span;
            *censored = 1;
            break;
        }
        D[n++] = pick + 1;
        t += pick + 1;
        row = logpibar + j * J;
    }
    *nseg = n;
    return used;
}

/* The filter step's deterministic passes, ``_pure.fbpf_accumulate`` and
 * the rest. Particles are stacked house after house, N to a house, R = H * N
 * rows; chain k of a particle uses the first Js[k] of its Jmax lanes. */

/* Joint-state predictive of the factorial filter, ``_pure.fbpf_accumulate``.
 *
 * rows and theta are (N, K, Jmax); chain k uses its first Js[k] entries. For
 * each particle the (M,) log rows and summed means, M = prod(Js), are outer
 * sums of the chain rows added in chain order k = 0..K-1 with the last chain
 * fastest, expanded in place from the back, the means in the M doubles of
 * scratch s. The aggregate Normal likelihood of particle n's reading
 * ybar[n], log normaliser lognorm = log(2 pi svar), is then added with the
 * pure kernel's expression.
 *
 * The row, still in cache, is then shifted by its max, as np.max (a NaN
 * wins), which goes to row_max[n]. Lanes whose shifted value is not >= lo
 * (NaN included) become NaN, whose exp NumPy takes at full speed, unlike
 * the exp of a deep negative; fbpf_total zeroes them. Four running maxima
 * and a select keep the loops free of data-dependent branches.
 */
void fbpf_accumulate(ptrdiff_t N, ptrdiff_t K, ptrdiff_t Jmax, const long long *Js,
                     ptrdiff_t M, const double *rows, const double *theta,
                     double svar, double lognorm, const double *ybar, double lo,
                     double *logw, double *row_max, double *s)
{
    for (ptrdiff_t n = 0; n < N; n++) {
        const double *r = rows + n * K * Jmax, *th = theta + n * K * Jmax;
        double *w = logw + n * M;
        ptrdiff_t size = (ptrdiff_t)Js[0];
        for (ptrdiff_t j = 0; j < size; j++) {
            w[j] = r[j];
            s[j] = th[j];
        }
        for (ptrdiff_t k = 1; k < K; k++) {
            const double *rk = r + k * Jmax, *tk = th + k * Jmax;
            ptrdiff_t Jk = (ptrdiff_t)Js[k];
            /* entry a moves to a * Jk .. a * Jk + Jk - 1; going from the back
             * leaves every entry below a unread and unwritten */
            for (ptrdiff_t a = size - 1; a >= 0; a--) {
                double wa = w[a], sa = s[a];
                for (ptrdiff_t j = 0; j < Jk; j++) {
                    w[a * Jk + j] = wa + rk[j];
                    s[a * Jk + j] = sa + tk[j];
                }
            }
            size *= Jk;
        }
        for (ptrdiff_t m = 0; m < M; m++) {
            double d = ybar[n] - s[m];
            w[m] = w[m] + -0.5 * (lognorm + d * d / svar);
        }

        double a[4] = {w[0], w[0], w[0], w[0]};
        int nan = 0;
        ptrdiff_t i = 0;
        for (; i + 4 <= M; i += 4)
            for (int j = 0; j < 4; j++) {
                a[j] = w[i + j] > a[j] ? w[i + j] : a[j];
                nan |= w[i + j] != w[i + j];
            }
        for (; i < M; i++) {
            a[0] = w[i] > a[0] ? w[i] : a[0];
            nan |= w[i] != w[i];
        }
        double mx = a[0] > a[1] ? a[0] : a[1], m2 = a[2] > a[3] ? a[2] : a[3];
        mx = nan ? NAN : mx > m2 ? mx : m2;
        row_max[n] = mx;
        for (i = 0; i < M; i++) {
            double d = w[i] - mx;
            w[i] = d >= lo ? d : NAN;
        }
    }
}

/* Sets the NaN lanes of pred (R, M), the exp of fbpf_accumulate's dropped
 * lanes, to 0 and writes each row's pairwise sum, as np.sum, to tot. */
void fbpf_total(ptrdiff_t R, ptrdiff_t M, double *pred, double *tot)
{
    for (ptrdiff_t r = 0; r < R; r++) {
        double *restrict p = pred + r * M;
        for (ptrdiff_t i = 0; i < M; i++)
            p[i] = p[i] == p[i] ? p[i] : 0.0;
        tot[r] = pairwise_sum(p, M);
    }
}

/* Row r of the R = H * N new particles advances from ancestor a = anc[r],
 * as ``_pure.fbpf_advance``. It draws its joint state from predictive row a
 * of pred (rows x M) over tot[a], the count of lanes whose running sum lies
 * below u[r] clamped to M - 1, and writes that row of the (M, K) table joint
 * to states (R, K). It splits ybar[r] across the chains at a's means there
 * with the normals z (R, K): g_k = sqrt(s2[k]) z[r, k] goes to emis first.
 * The means add in chain order from chain 0, as fbpf_accumulate builds them.
 * It writes a's statistics tc, es and ec plus the step's increments, the
 * transition old[a, k] -> states[r, k] only when transitions is nonzero.
 *
 * Its conjugate posterior, ``_pure.conjugate_posterior``, follows from the
 * new statistics while they are in cache. Lane (k, j), q = k * Jmax + j:
 * variance pv = 1 / (ec / s2[k] + inv_v0[q]), mean (es / s2[k] + m0_v0[q])
 * times pv, and theta_out = zt * sqrt(pv) + mean, where zt is the next of
 * the sum Js[k] standard normals of row r of zt in a real lane j < Js[k]
 * and 0.0 in a padding lane; inv_v0 and m0_v0 are NumPy's 1 / v0 and
 * m0 / v0 of the prior. Row (r, k) of rows (R, K, Jmax) is the Dirichlet
 * posterior mean of the transition row out of chain k's new state, the one
 * row the next step reads: alpha[k] + tc of that row over its sum, which
 * adds in pairwise_sum's order as np.sum does, and 1.0 in the padding lanes
 * j >= Js[k], whose log (0) is cheap and which no pass reads. */
void fbpf_advance(ptrdiff_t R, ptrdiff_t M, ptrdiff_t K, ptrdiff_t Jmax,
                  const long long *Js, const double *pred, const double *tot,
                  const long long *anc, const double *u, const int *joint,
                  const double *theta, const double *s2, const double *ybar, const double *z,
                  const long long *old, int transitions, const double *tc,
                  const double *es, const double *ec, const double *zt,
                  const double *inv_v0, const double *m0_v0, const double *alpha,
                  long long *states, double *emis, double *tc_out, double *es_out,
                  double *ec_out, double *theta_out, double *rows)
{
    ptrdiff_t sq = K * Jmax * Jmax, ln = K * Jmax, C = 0;
    double S = pairwise_sum(s2, K);
    for (ptrdiff_t k = 0; k < K; k++)
        C += (ptrdiff_t)Js[k];
    for (ptrdiff_t r = 0; r < R; r++) {
        long long a = anc[r];
        const double *p = pred + a * M;
        double t = tot[a], c = 0.0;
        ptrdiff_t pick = 0;
        for (ptrdiff_t m = 0; m < M; m++) {
            c += p[m] / t;
            pick += u[r] > c;
        }
        if (pick > M - 1)
            pick = M - 1;
        long long *x = states + r * K;
        for (ptrdiff_t k = 0; k < K; k++)
            x[k] = joint[pick * K + k];

        const double *th = theta + a * ln;
        double *e = emis + r * K, mean = th[x[0]];
        for (ptrdiff_t k = 1; k < K; k++)
            mean += th[k * Jmax + x[k]];
        for (ptrdiff_t k = 0; k < K; k++)
            e[k] = sqrt(s2[k]) * z[r * K + k];
        /* np.sum adds the pairwise sum to +0.0, which turns only -0.0 to +0.0 */
        double q = ((ybar[r] - mean) - (0.0 + pairwise_sum(e, K))) / S;
        for (ptrdiff_t k = 0; k < K; k++)
            e[k] = (th[k * Jmax + x[k]] + s2[k] * q) + e[k];

        double *tr = tc_out + r * sq, *sr = es_out + r * ln, *cr = ec_out + r * ln;
        memcpy(tr, tc + a * sq, sq * sizeof *tr);
        memcpy(sr, es + a * ln, ln * sizeof *sr);
        memcpy(cr, ec + a * ln, ln * sizeof *cr);
        for (ptrdiff_t k = 0; k < K; k++) {
            long long i = old[a * K + k], j = x[k];
            if (transitions)
                tr[(k * Jmax + i) * Jmax + j] += 1.0;
            sr[k * Jmax + j] += e[k];
            cr[k * Jmax + j] += 1.0;
        }

        const double *zr = zt + r * C;
        double *th_out = theta_out + r * ln, *row = rows + r * ln;
        for (ptrdiff_t k = 0; k < K; k++) {
            ptrdiff_t J = (ptrdiff_t)Js[k];
            for (ptrdiff_t j = 0; j < Jmax; j++) {
                ptrdiff_t lane = k * Jmax + j;
                double pv = 1.0 / (cr[lane] / s2[k] + inv_v0[lane]);
                double pm = (sr[lane] / s2[k] + m0_v0[lane]) * pv;
                th_out[lane] = (j < J ? zr[j] : 0.0) * sqrt(pv) + pm;
            }
            ptrdiff_t from = (k * Jmax + x[k]) * Jmax;
            double *out = row + k * Jmax, sum = 0.0;  /* pairwise_sum's own order below 8 */
            for (ptrdiff_t j = 0; j < J; j++)
                out[j] = alpha[from + j] + tr[from + j];
            if (J < 8)
                for (ptrdiff_t j = 0; j < J; j++)
                    sum += out[j];
            else
                sum = pairwise_sum(out, J);
            for (ptrdiff_t j = 0; j < J; j++)
                out[j] = out[j] / sum;
            for (ptrdiff_t j = J; j < Jmax; j++)
                out[j] = 1.0;
            zr += J;
        }
    }
}

/* The sha256 of the kernels.c this library was built from, which setup.py
 * passes in; the loader refuses a library built from other source. */
#ifndef KERNELS_DIGEST
#define KERNELS_DIGEST ""
#endif

const char *kernels_digest(void)
{
    return KERNELS_DIGEST;
}
