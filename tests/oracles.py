"""Independent brute-force oracles used by the test suite.

These are deliberately naive nested-loop implementations that share no code
with the library; they exist to cross-check the vectorized operations. They
take one NCHW sample, [C, *spatial]; fpnn's layers take channels-last
batches, so tests convert at the boundary with ``nhwc`` and ``nchw``.
"""

import numpy as np


def nhwc(x):
    """[N, C, *spatial] -> [N, *spatial, C]."""
    return np.ascontiguousarray(np.moveaxis(x, 1, -1))


def nchw(x):
    """[N, *spatial, C] -> [N, C, *spatial]."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 1))


def conv2d_loop(x, w, b, stride, pad):
    """x: [C,H,W], w: [O,C,kh,kw] -> [O,H',W'] by explicit summation."""
    c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
    xp[:, ph : ph + h, pw : pw + wd] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, oh, ow))
    for o in range(c_out):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for c in range(c_in):
                    for m in range(kh):
                        for n in range(kw):
                            acc += xp[c, i * sh + m, j * sw + n] * w[o, c, m, n]
                out[o, i, j] = acc + b[o]
    return out


def conv3d_loop(x, w, b, stride, pad):
    """x: [C,D,H,W], w: [O,C,kd,kh,kw] -> [O,D',H',W']."""
    c_in, d, h, wd = x.shape
    c_out, _, kd, kh, kw = w.shape
    sd, sh, sw = stride
    pd, ph, pw = pad
    xp = np.zeros((c_in, d + 2 * pd, h + 2 * ph, wd + 2 * pw))
    xp[:, pd : pd + d, ph : ph + h, pw : pw + wd] = x
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, od, oh, ow))
    for o in range(c_out):
        for z in range(od):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(c_in):
                        for u in range(kd):
                            for m in range(kh):
                                for n in range(kw):
                                    acc += (
                                        xp[c, z * sd + u, i * sh + m, j * sw + n]
                                        * w[o, c, u, m, n]
                                    )
                    out[o, z, i, j] = acc + b[o]
    return out


def _zero_padded(x, pad):
    c_in, h, w = x.shape
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def avg_pool_loop(x, window, stride, pad=0):
    """x: [C,H,W] -> windowed means over the zero-padded input."""
    xp = _zero_padded(x, pad)
    c_in, h, w = xp.shape
    kh, kw = window
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((c_in, oh, ow))
    for c in range(c_in):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for m in range(kh):
                    for n in range(kw):
                        acc += xp[c, i * stride + m, j * stride + n]
                out[c, i, j] = acc / (kh * kw)
    return out


def max_pool_loop(x, window, stride, pad=0):
    xp = _zero_padded(x, pad)
    c_in, h, w = xp.shape
    kh, kw = window
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((c_in, oh, ow))
    for c in range(c_in):
        for i in range(oh):
            for j in range(ow):
                best = -np.inf
                for m in range(kh):
                    for n in range(kw):
                        best = max(best, xp[c, i * stride + m, j * stride + n])
                out[c, i, j] = best
    return out


def max_pool_backward_loop(x, window, stride, pad, output_grad):
    """Input gradient of a zero-padded max pool over x: [C,H,W]. Each
    window's grad goes to its first maximum in row-major order; a cell in
    several windows sums their grads in row-major window order."""
    xp = _zero_padded(x, pad)
    c_in, h, w = xp.shape
    gx = np.zeros((c_in, h, w))
    kh, kw = window
    _, oh, ow = output_grad.shape
    for c in range(c_in):
        for i in range(oh):
            for j in range(ow):
                best, at = -np.inf, None
                for m in range(kh):
                    for n in range(kw):
                        v = xp[c, i * stride + m, j * stride + n]
                        if v > best:
                            best, at = v, (i * stride + m, j * stride + n)
                gx[c, at[0], at[1]] += output_grad[c, i, j]
    return gx[:, pad : h - pad, pad : w - pad]


def hampel_loop(series, window=11, n_sigmas=3.0):
    """Hampel filter one point at a time along the last axis: each point
    more than n_sigmas * 1.4826 * MAD from the median of its window
    (truncated at the ends) is replaced with that median."""
    x = np.asarray(series, dtype=float)
    half = window // 2
    out = x.copy()
    for row in np.ndindex(*x.shape[:-1]):
        xr = x[row]
        for i in range(xr.size):
            win = xr[max(0, i - half) : min(xr.size, i + half + 1)]
            med = np.median(win)
            mad = np.median(np.abs(win - med))
            if np.abs(xr[i] - med) > n_sigmas * 1.4826 * mad:
                out[row + (i,)] = med
    return out


def savgol_window_loop(x, window, polyorder):
    """Per-window least-squares polynomial fit evaluated pointwise.

    Interior points take the center value of their own window's fit; edge
    points are evaluated from the polynomial of the nearest full window.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    half = window // 2
    out = np.empty(n)

    def window_fit(start):
        t = np.arange(window, dtype=float)
        coeffs = np.polynomial.polynomial.polyfit(t, x[start : start + window], polyorder)
        return coeffs

    for i in range(n):
        if i < half:
            coeffs = window_fit(0)
            out[i] = np.polynomial.polynomial.polyval(i, coeffs)
        elif i >= n - half:
            coeffs = window_fit(n - window)
            out[i] = np.polynomial.polynomial.polyval(i - (n - window), coeffs)
        else:
            coeffs = window_fit(i - half)
            out[i] = np.polynomial.polynomial.polyval(half, coeffs)
    return out


def metrics_loop(y, yhat):
    """Brute-force MAPE/MAE/RMSE sums."""
    n = len(y)
    mape = 0.0
    mae = 0.0
    sq = 0.0
    for yi, pi in zip(y, yhat):
        mape += abs((yi - pi) / yi)
        mae += abs(yi - pi)
        sq += (yi - pi) ** 2
    return 100.0 * mape / n, mae / n, (sq / n) ** 0.5


def gp_posterior_dense(train_x, train_y, query_x, lengthscales, signal_var, noise_var):
    """GP posterior by direct dense inversion (no Cholesky)."""
    train_x = np.atleast_2d(train_x)
    query_x = np.atleast_2d(query_x)

    def kern(a, b):
        d = (a[:, None, :] - b[None, :, :]) / lengthscales
        return signal_var * np.exp(-0.5 * np.sum(d * d, axis=-1))

    k_tt = kern(train_x, train_x) + noise_var * np.eye(len(train_x))
    k_qt = kern(query_x, train_x)
    k_inv = np.linalg.inv(k_tt)
    mean = k_qt @ k_inv @ train_y
    var = signal_var - np.sum((k_qt @ k_inv) * k_qt, axis=1)
    return mean, var
