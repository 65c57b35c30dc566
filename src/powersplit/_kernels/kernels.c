/* Compiled kernels: the explicit-duration backward pass, the forward segment
 * draw over its messages, and the factorial filter's joint-state accumulate.
 *
 * Plain C99 with no Python or NumPy API. ``_compiled.py`` loads the library
 * with ctypes, checks every input and allocates every output; arrays here are
 * C-contiguous float64 whose shapes the loader has already verified.
 *
 * Build with -ffp-contract=off and without -ffast-math: fbpf_accumulate is
 * bit-identical to the pure NumPy kernel only when each expression below is
 * evaluated as written, with no fused multiply-add and no reassociation.
 */

#include <math.h>
#include <stddef.h>

/* exp(x) rounds to +0 below log(2^-1075) = -745.13 */
#define EXP_UNDERFLOW (-746.0)

/* log(sum(exp(a[0..n-1]))); -inf when every entry is -inf. Terms that
 * exp() would round to zero are skipped, which leaves the sum unchanged bit
 * for bit; in a duration window most terms are (99% in training sweeps). */
static double logsumexp(const double *a, ptrdiff_t n)
{
    double m = -INFINITY, s = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        if (a[i] > m)
            m = a[i];
    if (m == -INFINITY)
        return -INFINITY;
    for (ptrdiff_t i = 0; i < n; i++) {
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
 * log-likelihoods, cum[0] = 0. Writes B (T + 1, J) and Bstar (T, J); buf
 * holds at least max(min(T, dmax) + 1, J) doubles of scratch.
 */
void hsmm_backward(ptrdiff_t T, ptrdiff_t J, ptrdiff_t dmax,
                   const double *logtrans_bar,
                   const double *logdur, ptrdiff_t ldur,
                   const double *logtail, ptrdiff_t ltail,
                   const double *cum, double *B, double *Bstar, double *buf)
{
    for (ptrdiff_t j = 0; j < J; j++)
        B[T * J + j] = 0.0;
    for (ptrdiff_t t = T - 1; t >= 0; t--) {
        ptrdiff_t span = T - t < dmax ? T - t : dmax;
        const double *ct = cum + t * J;
        for (ptrdiff_t j = 0; j < J; j++) {
            /* interior durations d = 1..span, then the censored remainder */
            for (ptrdiff_t d = 1; d <= span; d++)
                buf[d - 1] = (B[(t + d) * J + j] + logdur[j * ldur + d - 1])
                             + (ct[d * J + j] - ct[j]);
            buf[span] = logtail[j * ltail + span] + (cum[T * J + j] - ct[j]);
            Bstar[t * J + j] = logsumexp(buf, span + 1);
        }
        for (ptrdiff_t i = 0; i < J; i++) {
            for (ptrdiff_t j = 0; j < J; j++)
                buf[j] = logtrans_bar[i * J + j] + Bstar[t * J + j];
            B[t * J + i] = logsumexp(buf, J);
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

/* Joint-state predictive of the factorial filter, ``_pure.fbpf_accumulate``.
 *
 * rows and theta are (N, K, Jmax); chain k uses its first Js[k] entries. For
 * each particle the (M,) outputs, M = prod(Js), are outer sums of the chain
 * rows added in chain order k = 0..K-1 with the last chain fastest, expanded
 * in place from the back. The aggregate Normal likelihood of particle n's
 * reading ybar[n], log normaliser lognorm = log(2 pi svar), is then added
 * with the pure kernel's expression.
 */
void fbpf_accumulate(ptrdiff_t N, ptrdiff_t K, ptrdiff_t Jmax, const long long *Js,
                     ptrdiff_t M, const double *rows, const double *theta,
                     double svar, double lognorm, const double *ybar,
                     double *logw, double *sumtheta)
{
    for (ptrdiff_t n = 0; n < N; n++) {
        const double *r = rows + n * K * Jmax, *th = theta + n * K * Jmax;
        double *w = logw + n * M, *s = sumtheta + n * M;
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
    }
}
