"""Minimal float64 tensor with reverse-mode autodiff.

Every value is a dense numpy array in row-major order. Ops record their
parents and a backward closure; ``Tensor.backward()`` sweeps the graph
and accumulates gradients into every reachable tensor that has
``requires_grad`` set. Each Tensor carries its creation index, and the
sweep runs nodes in reverse creation order, latest-made first, a reverse
Wengert list (Griewank & Walther, Evaluating Derivatives, 2008). That
order is valid because an op's parents are made before its result, so a
node runs only after every consumer that passes it a gradient. The
sweep keeps only its frontier and consumes the graph as it goes: once a
node's backward has run, the node drops its parents and closure, so an
intermediate array lives only while the rest of the sweep needs it or
the caller holds its Tensor. A held Tensor keeps its ``.data`` and
``.grad``; a second sweep that reaches a consumed node raises
``GraphError``. Leaves are never consumed, so gradients of two graphs
built on the same parameters add up. Inside ``no_grad()`` ops record
nothing; the mode is kept per thread.

The op set is deliberately small: matmul, reshape, transpose, concat,
slicing/gather (an embedding lookup is ``weight[ids]``), row picking,
elementwise arithmetic, sum/mean, log-softmax, GELU, clip, dropout,
cosine similarity and cross-entropy, plus three fused single-node
kernels with closed-form backward: linear (x @ W, plus a bias b when
given), layer norm and multi-head attention. Everything else in the
package is composed from these.

Each fused forward runs the numpy operations of its composed equivalent
in the same order, so forward values are bit-identical to composing the
smaller ops; only the backward rounds differently.

The fused kernels, GELU and dropout run those operations, the same ones
in the same order on the same operands, in place on arrays of their
own: each allocates only the arrays it returns or its backward keeps,
and never writes to its inputs, its mask, its upstream gradient or the
attention weights it returned. An in-place step rounds exactly as the
step that makes a new array, so values and gradients are those of the
one-array-per-step form. Dropout keeps its mask as bool and scales by
1 / (1 - p) after it: x * 1.0 * s and x * 0.0 * s are x * s and x * 0.0,
sign included.

GELU's erf is Cephes's (ndtr.c; Moshier, Methods and Programs for
Mathematical Functions, 1989), the code SciPy runs, ported to numpy so
the package needs numpy alone. For |x| <= 1 it is a rational function
of x * x evaluated by Horner as Cephes does, one rounded multiply or
add per numpy call, so it is SciPy's erf bit for bit. For 1 < |x| < 6
it is 1 - exp(-x * x) P(|x|) / Q(|x|) with x's sign, computed on those
elements only; np.exp stands in for libm's exp there, so a result can
differ from SciPy's by 1 ulp. From |x| >= 6 on both give exactly +-1,
and NaN stays NaN.

ParamRegistry owns the one layout of a model's parameters: once laid
out, each parameter's .data is a view of one flat float64 buffer, and
gradients gather into a buffer of the same layout.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import GraphError, NumericError, ShapeError

LN_EPS = 1e-8
INIT_STD = 0.02

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _GradMode(threading.local):
    # enabled is False inside no_grad(); read by Tensor._from_op. Each
    # thread starts with the class default, True.
    enabled = True


_grad_mode = _GradMode()

# the _backward_fn of a node whose backward a sweep has run
_CONSUMED = object()

# each Tensor's creation index; next() on a count is atomic under the GIL
_next_index = itertools.count().__next__


@contextmanager
def no_grad():
    """Ops run inside the block build no graph: every result has
    ``requires_grad`` False and keeps no parents or backward closure.
    Forward values are unchanged. The mode belongs to the calling
    thread alone. Nests, and restores the previous mode on exit, also
    when the block raises."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Dense multi-dimensional float64 array participating in autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_index", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn = None
        self._index = _next_index()

    # -- construction ----------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = Tensor(data, requires_grad=_grad_mode.enabled
                     and any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    # -- basic properties ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 \
            else float(self.data)  # raises for size > 1, as it should

    # -- autodiff --------------------------------------------------------

    def detach(self) -> "Tensor":
        """A view of the same data cut out of the graph; backward through
        it accumulates nothing into its producers."""
        return Tensor(self.data, requires_grad=False)

    def backward(self) -> None:
        """Accumulate d(self)/d(t) into ``t.grad`` for every tensor t
        reachable from self that has ``requires_grad`` set.

        Nodes run latest-made first. The sweep consumes the graph: each
        node drops its parents and backward closure once its backward
        has run, so the graph's intermediate arrays are freed as the
        sweep goes, unless the caller still holds their Tensors. A held
        Tensor keeps its ``.data`` and gets its ``.grad`` when it runs.
        Leaves are never consumed; their ``.grad`` is written, or added
        to, only once the whole sweep has run. A sweep that reaches a
        consumed node raises GraphError and leaves every leaf's
        ``.grad`` as it was; build the graph again instead. self must
        be a scalar (ShapeError otherwise); its own gradient is 1.
        """
        if self.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        if not self.requires_grad:
            return

        # the frontier, keyed by creation index: a node is made after its
        # parents, so the latest-made node pops only once every consumer
        # that passes it a gradient has run
        heap = [(-self._index, self)]
        pending = {self._index: np.ones_like(self.data)}
        leaves = []
        while heap:
            node = heapq.heappop(heap)[1]
            g = pending.pop(node._index)
            fn = node._backward_fn
            if fn is None:
                leaves.append((node, g))
                continue
            if fn is _CONSUMED:
                raise GraphError("backward() reached a node whose graph an "
                                 "earlier backward() consumed")
            node.grad = g
            for p, pg in zip(node._parents, fn(g)):
                if pg is None or not p.requires_grad:
                    continue
                if p._index in pending:
                    pending[p._index] = pending[p._index] + pg
                else:
                    pending[p._index] = pg
                    heapq.heappush(heap, (-p._index, p))
            node._parents = ()
            node._backward_fn = _CONSUMED
        for leaf, g in leaves:
            leaf.grad = g if leaf.grad is None else leaf.grad + g

    # -- elementwise arithmetic -------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data + other.data

        def back(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, other.shape)

        return Tensor._from_op(out, (self, other), back)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data - other.data

        def back(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)

        return Tensor._from_op(out, (self, other), back)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data * other.data

        def back(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))

        return Tensor._from_op(out, (self, other), back)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data / other.data

        def back(g):
            return (_unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return Tensor._from_op(out, (self, other), back)

    def __pow__(self, p) -> "Tensor":
        if not isinstance(p, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        out = self.data ** p

        def back(g):
            return (g * p * self.data ** (p - 1),)

        return Tensor._from_op(out, (self,), back)

    # -- linear algebra ----------------------------------------------------

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeError("matmul requires tensors with ndim >= 2")
        if self.shape[-1] != other.shape[-2]:
            raise ShapeError(f"matmul shapes do not conform: "
                             f"{self.shape} @ {other.shape}")
        out = self.data @ other.data

        def back(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            return _unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape)

        return Tensor._from_op(out, (self, other), back)

    def transpose(self, axes: tuple) -> "Tensor":
        inv = tuple(np.argsort(axes))
        out = np.transpose(self.data, axes)

        def back(g):
            return (np.transpose(g, inv),)

        return Tensor._from_op(out, (self,), back)

    def swap_last(self) -> "Tensor":
        axes = list(range(self.ndim))
        axes[-1], axes[-2] = axes[-2], axes[-1]
        return self.transpose(tuple(axes))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = self.data.reshape(shape)

        def back(g):
            return (g.reshape(old),)

        return Tensor._from_op(out, (self,), back)

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]
        shape = self.shape

        def back(g):
            gx = np.zeros(shape, dtype=np.float64)
            # a basic key picks each element once, so a plain += adds
            # what np.add.at would; an advanced key may pick one twice
            if all(k is None or k is Ellipsis or isinstance(k, slice)
                   or (isinstance(k, (int, np.integer))
                       and not isinstance(k, bool))
                   for k in (key if isinstance(key, tuple) else (key,))):
                gx[key] += g
            else:
                np.add.at(gx, key, g)
            return (gx,)

        return Tensor._from_op(np.array(out, dtype=np.float64), (self,), back)

    # -- reductions --------------------------------------------------------

    def _spread(self, g: np.ndarray, axis, keepdims: bool) -> np.ndarray:
        """The gradient of a reduction over ``axis``, copied back out to
        this tensor's shape."""
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, self.shape).copy()

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def back(g):
            return (self._spread(g, axis, keepdims),)

        return Tensor._from_op(np.asarray(out, dtype=np.float64), (self,), back)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            n = 1
            for a in ax:
                n *= self.shape[a]
        out = self.data.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

        def back(g):
            return (self._spread(g * (1.0 / n), axis, keepdims),)

        return Tensor._from_op(np.asarray(out, dtype=np.float64), (self,), back)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise functions --------------------------------------------------

def _consts(*values):
    # read-only 0-d arrays: a ufunc takes one as an operand in about 60%
    # of the time it takes to convert a Python float
    out = tuple(np.array(v) for v in values)
    for a in out:
        a.flags.writeable = False
    return out


# Cephes ndtr.c (Moshier, Methods and Programs for Mathematical
# Functions, 1989): erf(u) = u T(u^2) / U(u^2) for |u| <= 1, and
# 1 - exp(-a^2) P(a) / Q(a) with a = |u| above, u's sign kept. U and Q
# are monic; their leading 1 is implied.
_ERF_T = _consts(9.60497373987051638749e0, 9.00260197203842689217e1,
                 2.23200534594684319226e3, 7.00332514112805075473e3,
                 5.55923013010394962768e4)
_ERF_U = _consts(3.35617141647503099647e1, 5.21357949780152679795e2,
                 4.59432382970980127987e3, 2.26290000613890934246e4,
                 4.92673942608635921086e4)
_ERFC_P = _consts(2.46196981473530512524e-10, 5.64189564831068821977e-1,
                  7.46321056442269912687e0, 4.86371970985681366614e1,
                  1.96520832956077098242e2, 5.26445194995477358631e2,
                  9.34528527171957607540e2, 1.02755188689515710272e3,
                  5.57535335369399327526e2)
_ERFC_Q = _consts(1.32281951154744992508e1, 8.67072140885989742329e1,
                  3.54937778887819891062e2, 9.75708501743205489753e2,
                  1.82390916687909736289e3, 2.24633760818710981792e3,
                  1.65666309194161350182e3, 5.57535340817727675546e2)
# 1 - erfc(a) rounds to 1 from 6 on: erfc(6) ~ 2e-17 is below half an
# ulp of 1
_ONE, _SIX = _consts(1.0, 6.0)

# the erf kernels make many short calls; positional out= is the
# cheapest form of each
_mul, _add, _div = np.multiply, np.add, np.divide


def _polevl(x, coef, out=None):
    """coef[0] x^N + ... + coef[N] by Horner, as Cephes's polevl: each
    step a multiply, then an add, each rounded once."""
    ans = _mul(x, coef[0], out)
    _add(ans, coef[1], ans)
    for c in coef[2:]:
        _mul(ans, x, ans)
        _add(ans, c, ans)
    return ans


def _p1evl(x, coef, out=None):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], as Cephes's p1evl."""
    ans = _add(x, coef[0], out)
    for c in coef[1:]:
        _mul(ans, x, ans)
        _add(ans, c, ans)
    return ans


def _erf_far(s: np.ndarray) -> np.ndarray:
    """erf of a 1-d array whose every |s| > 1, in a new array."""
    # clamped, P and Q stay finite for any a and 1 - erfc(a) is still 1
    a = np.abs(s)
    np.minimum(a, _SIX, out=a)
    p = _polevl(a, _ERFC_P)
    q = _p1evl(a, _ERFC_Q)
    y = _mul(a, a, a)
    np.exp(np.negative(y, y), y)
    _mul(y, p, y)
    _div(y, q, y)
    return np.copysign(np.subtract(_ONE, y, y), s, y)


class _Scratch(threading.local):
    # each thread's erf numerator, grown to the largest input it has
    # seen. A fresh temporary per call is faulted in again whenever
    # malloc has handed its pages back: 12.8k against 1.0k minor faults
    # per cycle of the image benchmark. Every call writes it before
    # reading it, so no call sees another's values
    buf = np.empty(0)


_scratch = _Scratch()


def _erf_into(u: np.ndarray, work: np.ndarray) -> None:
    """u = erf(u) in place; work, of u's shape, is overwritten. Both are
    C-contiguous float64 arrays."""
    u, z = u.reshape(-1), work.reshape(-1)
    if _scratch.buf.size < u.size:
        _scratch.buf = np.empty(u.size)
    # a huge |u| overflows u * u, and inf / inf follows; the elements
    # they reach are overwritten by the far branch
    with np.errstate(over="ignore", invalid="ignore"):
        _mul(u, u, z)
        num = _polevl(z, _ERF_T, _scratch.buf[:u.size])
        _mul(num, u, num)
        # taken before u holds the denominator; z > 1 exactly where
        # |u| > 1, and a NaN stays NaN through the near branch
        far = None
        if not z.max(initial=0.0) <= 1.0:
            far = np.flatnonzero(np.greater(z, _ONE))
            s = u.take(far)
        _div(num, _p1evl(z, _ERF_U, u), u)
    if far is not None:
        u.put(far, _erf_far(s))


def erf(x) -> np.ndarray:
    """The error function of x, elementwise, as a new float64 array. It
    is Cephes's erf, the one SciPy runs, computed with numpy: bit for
    bit SciPy's wherever |x| <= 1. Beyond, only np.exp stands in for
    libm's exp, so a result can differ from SciPy's by 1 ulp; from
    |x| >= 6 on both are exactly +-1."""
    u = np.array(x, dtype=np.float64, order="C")
    _erf_into(u, np.empty_like(u))
    return u


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    # phi = 0.5 * (1 + erf(x / sqrt 2)); out is erf's scratch until the end
    phi = np.multiply(x.data, _INV_SQRT2, out=np.empty(x.shape))
    out = np.empty(x.shape)
    _erf_into(phi, out)
    phi += 1.0
    phi *= 0.5
    np.multiply(x.data, phi, out=out)

    def back(g):
        # g * (phi + x * pdf), pdf = exp(-x * x / 2) / sqrt(2 pi)
        gx = x.data * -0.5
        gx *= x.data
        np.exp(gx, out=gx)
        gx *= _INV_SQRT2PI
        gx *= x.data
        gx += phi
        gx *= g
        return (gx,)

    return Tensor._from_op(out, (x,), back)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi]."""
    out = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def back(g):
        return (g * mask,)

    return Tensor._from_op(out, (x,), back)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            shape: tuple | None = None, rows=None) -> Tensor:
    """Inverted dropout. Its caller, encoders.residual, applies it to a
    residual sublayer's output.

    When x is ``take_rows`` of a tensor of ``shape`` at ``rows``, the
    mask is drawn at ``shape`` and its rows taken the same way, so the
    generator advances exactly as it would for the whole tensor.
    """
    if p <= 0.0:
        return x
    scale = 1.0 / (1.0 - p)
    keep = rng.random(x.shape if rows is None else shape) >= p
    if rows is not None:
        keep = keep[:, rows].reshape(x.shape)
    out = x.data * keep
    out *= scale

    def back(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return Tensor._from_op(out, (x,), back)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    y = np.exp(out)

    def back(g):
        return (g - y * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out, (x,), back)


# -- structural ops ----------------------------------------------------------

def concat(tensors: list, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out, tuple(tensors), back)


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """The distinct positions ``rows`` along axis 1 of x (B, L, D),
    folded to (B * len(rows), D)."""
    out = x.data[:, rows].reshape(-1, x.shape[-1])

    def back(g):
        gx = np.zeros(x.shape)
        gx[:, rows] = g.reshape(x.shape[0], len(rows), x.shape[-1])
        return (gx,)

    return Tensor._from_op(out, (x,), back)


# -- fused kernels ------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w``, plus ``b`` when given, for x (..., d_in), w (d_in,
    d_out) and b (d_out,)."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear shapes do not conform: x {x.shape}, "
                         f"w {w.shape}, b {None if b is None else b.shape}")
    out = x.data @ w.data
    if b is not None:
        out += b.data

    def back(g):
        rows = g.reshape(-1, g.shape[-1])
        grads = (g @ w.data.T, x.data.reshape(-1, x.shape[-1]).T @ rows)
        return grads if b is None else grads + (rows.sum(axis=0),)

    return Tensor._from_op(out, (x, w) if b is None else (x, w, b), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine;
    LN_EPS is added to the variance."""
    inv_n = 1.0 / x.shape[-1]
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    out = xhat * xhat  # the squares first, then the output
    std = out.sum(axis=-1, keepdims=True) * inv_n
    std += LN_EPS
    np.sqrt(std, out=std)
    xhat /= std
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def back(g):
        # gh = g * gain;
        # gx = (gh - rowsum(gh) / n - xhat * rowsum(gh * xhat) / n) / std
        gx = g * gain.data
        mean_gh = gx.sum(axis=-1, keepdims=True) * inv_n
        t = gx * xhat
        np.multiply(xhat, t.sum(axis=-1, keepdims=True), out=t)
        t *= inv_n
        gx -= mean_gh
        gx -= t
        gx /= std
        np.multiply(g, xhat, out=t)
        return (gx, _unbroadcast(t, gain.shape),
                _unbroadcast(g, bias.shape))

    return Tensor._from_op(out, (x, gain, bias), back)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, D) -> (..., heads, L, D / heads)."""
    y = a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads)
    return np.swapaxes(y, -3, -2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, L, dh) -> (..., L, heads * dh)."""
    y = np.swapaxes(a, -3, -2)
    return y.reshape(*y.shape[:-2], y.shape[-2] * y.shape[-1])


def mha(q: Tensor, k: Tensor, v: Tensor, heads: int,
        mask: np.ndarray | None = None):
    """Multi-head ``softmax(q kᵀ / sqrt(d) + mask) v`` in one node.

    q is (..., Q, D); k and v are (..., K, D) with the same leading
    shape. D is split into ``heads`` heads of width d = D / heads, and
    the head outputs are merged back into (..., Q, D). ``mask`` is an
    additive constant that broadcasts to the (..., heads, Q, K) scores
    without enlarging them (ShapeError otherwise); use -inf to exclude
    keys. Returns the output Tensor and the attention weights as a
    (..., heads, Q, K) array whose rows sum to 1.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError("attention operands must have ndim >= 2")
    d_model = q.shape[-1]
    if k.shape[-1] != d_model or q.shape[:-2] != k.shape[:-2]:
        raise ShapeError(f"query/key shapes do not conform: "
                         f"{q.shape} vs {k.shape}")
    if v.shape != k.shape:
        raise ShapeError(f"key/value shapes differ: {k.shape} vs {v.shape}")
    if heads < 1 or d_model % heads != 0:
        raise ShapeError(f"{heads} heads do not divide width {d_model}")
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        scores_shape = q.shape[:-2] + (heads, q.shape[-2], k.shape[-2])
        try:
            fits = np.broadcast_shapes(scores_shape, mask.shape) \
                == scores_shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"mask {mask.shape} does not broadcast to the "
                             f"{scores_shape} attention scores")
    scale = 1.0 / math.sqrt(d_model // heads)
    qs, ks, vs = (_split_heads(t.data, heads) for t in (q, k, v))
    # softmax(scores * scale + mask), each step in place on the scores
    weights = qs @ np.swapaxes(ks, -1, -2)
    weights *= scale
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    o = weights @ vs

    def back(g):
        go = _split_heads(g, heads)
        # gs = weights * (gw - rowsum(go * o)) * scale, in place on
        # gw = go vᵀ; rowsum(gw * weights) equals rowsum(go * o), the
        # identity FlashAttention uses (Dao et al. 2022)
        gs = go @ np.swapaxes(vs, -1, -2)
        gs -= (go * o).sum(axis=-1, keepdims=True)
        gs *= weights
        gs *= scale
        return (_merge_heads(gs @ ks),
                _merge_heads(np.swapaxes(gs, -1, -2) @ qs),
                _merge_heads(np.swapaxes(weights, -1, -2) @ go))

    return Tensor._from_op(_merge_heads(o), (q, k, v), back), weights


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` (n×d) and ``b`` (m×d)."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine similarity needs matching 2-d rows: "
                         f"{a.shape} vs {b.shape}")
    for t in (a, b):
        norms = np.sqrt((t.data ** 2).sum(axis=1))
        if np.any(norms < 1e-12):
            raise NumericError("zero-norm row in cosine similarity")
    an = a * ((a * a).sum(axis=1, keepdims=True) ** -0.5)
    bn = b * ((b * b).sum(axis=1, keepdims=True) ** -0.5)
    return an @ bn.swap_last()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits`` rows."""
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy expects (n, C) logits and (n,) targets")
    ls = log_softmax(logits, axis=-1)
    picked = ls[(np.arange(targets.shape[0]), targets)]
    return -picked.mean()


# -- parameter containers ------------------------------------------------------

class ParamRegistry:
    """Name -> Tensor map with deterministic iteration order, and the one
    owner of the parameters' flat layout: the first read of flat, or a
    load(), copies every parameter's value, in registry order, into one
    float64 buffer and makes its .data a view of its slot there.
    Registering or loading after that raises ValueError. views() and
    flat_grad() read and write other buffers in the same layout."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat: np.ndarray | None = None

    def register(self, name: str, value) -> Tensor:
        if self._flat is not None:
            raise ValueError(f"cannot register {name}: the parameters are "
                             f"already laid out in flat")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = True
        self._params[name] = t
        return t

    @property
    def flat(self) -> np.ndarray:
        if self._flat is None:
            self.load({name: t.data for name, t in self.items()})
        return self._flat

    def load(self, values: dict) -> None:
        """Lay flat out from values (see gather): each parameter's .data
        becomes a view of its slot, in place of its registered array."""
        if self._flat is not None:
            raise ValueError("the parameters are already laid out in flat")
        flat = self.gather(values)
        for t, view in zip(self.values(), self.views(flat).values()):
            t.data = view
        self._flat = flat

    def gather(self, values: dict) -> np.ndarray:
        """values, name -> array of each parameter's shape, as one new
        float64 buffer in flat's layout, gathered in one call. Raises
        ShapeError where the names or a shape differ from the registered
        ones."""
        extra = sorted(set(values) - set(self._params))
        missing = sorted(set(self._params) - set(values))
        if extra or missing:
            raise ShapeError(f"parameter sets differ: {len(extra)} names "
                             f"the model lacks, first {extra[:3]}; "
                             f"{len(missing)} missing, first {missing[:3]}")
        for name, t in self.items():
            if np.shape(values[name]) != t.data.shape:
                raise ShapeError(f"{name}: given shape "
                                 f"{np.shape(values[name])} != registered "
                                 f"{t.data.shape}")
        return np.concatenate([values[name] for name in self._params]
                              or [np.empty(0)], axis=None, dtype=np.float64)

    def views(self, buf: np.ndarray) -> dict:
        """Name -> view of buf, a flat buffer in flat's layout, shaped as
        the parameter, in registry order."""
        out, lo = {}, 0
        for name, t in self.items():
            out[name] = buf[lo:lo + t.data.size].reshape(t.data.shape)
            lo += t.data.size
        return out

    def flat_grad(self, out: np.ndarray | None = None) -> np.ndarray:
        """The parameters' .grad in flat's layout, 0 where a .grad is
        None, written into out if given, else into a new array."""
        return np.concatenate([np.zeros(t.data.shape) if t.grad is None
                               else t.grad for t in self.values()],
                              axis=None, out=out)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def trunc_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Normal(0, INIT_STD) with draws beyond 2 INIT_STD resampled."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2.0 * INIT_STD
    while np.any(bad):
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * INIT_STD
    return out
