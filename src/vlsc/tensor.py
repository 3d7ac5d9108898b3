"""Minimal float64 tensor with reverse-mode autodiff.

Every value is a dense numpy array in row-major order. Ops record their
parents and a backward closure; ``Tensor.backward()`` runs a topological
sweep and accumulates gradients into every reachable tensor that has
``requires_grad`` set. Inside ``no_grad()`` ops record nothing. The op
set is deliberately small: matmul, reshape, transpose, concat,
slicing/gather, elementwise arithmetic, sum/mean, log-softmax, GELU,
clip, dropout, embedding lookup, cosine similarity and cross-entropy,
plus three fused single-node kernels with closed-form backward: linear
(x @ W + b), layer norm and multi-head attention. Everything else in the
package is composed from these.

Each fused forward runs the numpy operations of its composed equivalent
in the same order, so forward values are bit-identical to composing the
smaller ops; only the backward rounds differently.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# False inside no_grad(); read by Tensor._from_op
_grad_enabled = True


@contextmanager
def no_grad():
    """Ops run inside the block build no graph: every result has
    ``requires_grad`` False and keeps no parents or backward closure.
    Forward values are unchanged. Nests, and restores the previous mode
    on exit, also when the block raises."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward_fn) -> "Tensor":
        out = Tensor(data, requires_grad=_grad_enabled
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff --------------------------------------------------------

    def detach(self) -> "Tensor":
        """A view of the same data cut out of the graph; backward through
        it accumulates nothing into its producers."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.size != 1:
                raise ShapeError("backward() without an explicit gradient "
                                 "requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ShapeError("gradient shape mismatch in backward()")
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
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
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

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

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

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

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
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi

    def back(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (phi + x.data * pdf),)

    return Tensor._from_op(out, (x,), back)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi]."""
    out = np.clip(x.data, lo, hi)
    mask = (x.data >= lo) & (x.data <= hi)

    def back(g):
        return (g * mask,)

    return Tensor._from_op(out, (x,), back)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; caller decides whether training is active."""
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return Tensor._from_op(x.data * keep, (x,), lambda g: (g * keep,))


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
    out = x.data @ w.data + b.data

    def back(g):
        rows = g.reshape(-1, g.shape[-1])
        return (g @ w.data.T, x.data.reshape(-1, x.shape[-1]).T @ rows,
                rows.sum(axis=0))

    return Tensor._from_op(out, (x, w, b), back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    inv_n = 1.0 / x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = xc / std
    out = xhat * gain.data + bias.data

    def back(g):
        gh = g * gain.data
        gx = (gh - gh.sum(axis=-1, keepdims=True) * inv_n
              - xhat * (gh * xhat).sum(axis=-1, keepdims=True) * inv_n) / std
        return (gx, _unbroadcast(g * xhat, gain.shape),
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
    additive constant broadcastable to the (..., heads, Q, K) scores;
    use -inf to exclude keys. Returns the output Tensor and the
    attention weights as a (..., heads, Q, K) array whose rows sum to 1.
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
    scale = 1.0 / math.sqrt(d_model // heads)
    qs, ks, vs = (_split_heads(t.data, heads) for t in (q, k, v))
    scores = (qs @ np.swapaxes(ks, -1, -2)) * scale
    if mask is not None:
        scores = scores + np.asarray(mask, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    o = weights @ vs

    def back(g):
        go = _split_heads(g, heads)
        gw = go @ np.swapaxes(vs, -1, -2)
        # softmax backward; rowsum(gw * weights) equals rowsum(go * o),
        # the identity FlashAttention uses (Dao et al. 2022)
        gs = weights * (gw - (go * o).sum(axis=-1, keepdims=True)) * scale
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


def trunc_normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with draws beyond 2 std resampled."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out
