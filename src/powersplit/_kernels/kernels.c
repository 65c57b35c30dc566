/* Compiled kernels: the explicit-duration backward pass and the factorial
 * filter's joint-state accumulate.
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

/* Joint-state predictive of the factorial filter, ``_pure.fbpf_accumulate``.
 *
 * rows and theta are (N, K, Jmax); chain k uses its first Js[k] entries. For
 * each particle the (M,) outputs, M = prod(Js), are outer sums of the chain
 * rows added in chain order k = 0..K-1 with the last chain fastest, expanded
 * in place from the back. The aggregate Normal likelihood, log normaliser
 * lognorm = log(2 pi svar), is then added with the pure kernel's expression.
 */
void fbpf_accumulate(ptrdiff_t N, ptrdiff_t K, ptrdiff_t Jmax, const long long *Js,
                     ptrdiff_t M, const double *rows, const double *theta,
                     double svar, double lognorm, double ybar,
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
            double d = ybar - s[m];
            w[m] = w[m] + -0.5 * (lognorm + d * d / svar);
        }
    }
}
