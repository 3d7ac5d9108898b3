"""Minimal float64 tensor with reverse-mode autodiff.

Every value is a dense numpy array in row-major order. Ops record their
parents and a backward closure; ``Tensor.backward()`` runs a topological
sweep and accumulates gradients into every reachable tensor that has
``requires_grad`` set. The sweep consumes the graph as it goes: once a
node's backward has run, the node drops its parents and closure, so an
intermediate array lives only while the rest of the sweep needs it or
the caller holds its Tensor. A held Tensor keeps its ``.data`` and
``.grad``; a second sweep that reaches a consumed node raises
``GraphError``. Leaves are never consumed, so gradients of two graphs
built on the same parameters add up. Inside ``no_grad()`` ops record
nothing; the mode is kept per thread.

The op set is deliberately small: matmul, reshape, transpose, concat,
slicing/gather, row picking, elementwise arithmetic, sum/mean,
log-softmax, GELU, clip, dropout, embedding lookup, cosine similarity
and cross-entropy, plus three fused single-node kernels with
closed-form backward: linear (x @ W + b), layer norm and multi-head
attention. Everything else in the package is composed from these.

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
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

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
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn = None

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

        The sweep consumes the graph: each node drops its parents and
        backward closure once its backward has run, so the graph's
        intermediate arrays are freed as the sweep goes, unless the
        caller still holds their Tensors. A held Tensor keeps its
        ``.data`` and gets its ``.grad``. Leaves are left as they were.
        A later sweep that reaches a consumed node raises GraphError
        before it changes any ``.grad``; build the graph again instead.
        self must be a scalar (ShapeError otherwise); its own gradient
        is 1.
        """
        if self.size != 1:
            raise ShapeError("backward() requires a scalar tensor")
        if not self.requires_grad:
            return

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _CONSUMED:
                raise GraphError("backward() reached a node whose graph an "
                                 "earlier backward() consumed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        # keyed by nodes topo still holds, so no key is the id of a node
        # already freed
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = pending.pop(id(node), None)
            if g is None:
                continue
            node.grad = g if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                if id(p) in pending:
                    pending[id(p)] = pending[id(p)] + pg
                else:
                    pending[id(p)] = pg
            node._parents = ()
            node._backward_fn = _CONSUMED

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

def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    # phi = 0.5 * (1 + erf(x / sqrt 2))
    phi = x.data * _INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    out = x.data * phi

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
    residual sublayer's output in train mode only.

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


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    out = weight.data[ids]

    def back(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        return (gw,)

    return Tensor._from_op(out, (weight,), back)


# -- fused kernels ------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x (..., d_in), w (d_in, d_out) and b (d_out,)."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear shapes do not conform: x {x.shape}, "
                         f"w {w.shape}, b {b.shape}")
    out = x.data @ w.data
    out += b.data

    def back(g):
        rows = g.reshape(-1, g.shape[-1])
        return (g @ w.data.T, x.data.reshape(-1, x.shape[-1]).T @ rows,
                rows.sum(axis=0))

    return Tensor._from_op(out, (x, w, b), back)


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
    """Name -> Tensor map with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = True
        self._params[name] = t
        return t

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
