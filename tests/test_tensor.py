import math
import threading
import warnings
import weakref

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlsc import tensor as T
from vlsc.errors import GraphError, NumericError, ShapeError
from vlsc.tensor import Tensor


def fd_input_grads(fn, inputs, eps=1e-6):
    """Numeric gradient of scalar fn(*inputs) w.r.t. each input array."""
    grads = []
    for x in inputs:
        g = np.zeros_like(x)
        for i in range(x.size):
            orig = x.flat[i]
            x.flat[i] = orig + eps
            fp = fn(*inputs)
            x.flat[i] = orig - eps
            fm = fn(*inputs)
            x.flat[i] = orig
            g.flat[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def analytic_input_grads(build, inputs):
    ts = [Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = build(*ts)
    out.backward()
    return [t.grad for t in ts]


def check_op(build, *shapes, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=s) for s in shapes]

    def scalar(*arrays):
        ts = [Tensor(a) for a in arrays]
        return build(*ts).data.sum()

    # reduce to a scalar through a fixed random projection so every output
    # element contributes a distinct weight
    out0 = build(*[Tensor(a) for a in inputs])
    w = rng.normal(size=out0.shape)

    def scalar_proj(*arrays):
        ts = [Tensor(a) for a in arrays]
        return float((build(*ts).data * w).sum())

    def build_proj(*ts):
        return (build(*ts) * Tensor(w)).sum()

    num = fd_input_grads(scalar_proj, inputs)
    ana = analytic_input_grads(build_proj, inputs)
    for a, n in zip(ana, num):
        assert a is not None
        np.testing.assert_allclose(a, n, rtol=tol, atol=tol)


class TestOpGradients:
    def test_add_broadcast(self):
        check_op(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: a - b, (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_op(lambda a, b: a * b, (3, 1, 4), (2, 4))

    def test_div(self):
        check_op(lambda a, b: a / (b * b + 1.0), (3, 4), (3, 4))

    def test_pow(self):
        check_op(lambda a: (a * a + 1.0) ** 0.5, (5,) , tol=1e-5)

    def test_matmul(self):
        check_op(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        check_op(lambda a, b: a @ b, (2, 3, 5, 4), (2, 3, 4, 2))

    def test_matmul_broadcast_batch(self):
        check_op(lambda a, b: a @ b, (2, 3, 4), (4, 2))

    def test_transpose_reshape(self):
        check_op(lambda a: a.transpose((1, 0, 2)).reshape(6, 2), (3, 2, 2))

    def test_getitem_slice(self):
        check_op(lambda a: a[1:, :2], (3, 4))

    def test_getitem_advanced(self):
        idx = np.array([0, 2, 2])
        check_op(lambda a: a[idx], (4, 3))

    def test_concat(self):
        check_op(lambda a, b: T.concat([a, b], axis=1), (2, 3), (2, 2))

    def test_gelu(self):
        check_op(lambda a: T.gelu(a), (3, 5), tol=1e-5)

    def test_softmax(self):
        # identity values: the output is the weight matrix itself
        eye = Tensor(np.eye(5))
        check_op(lambda q, k: T.mha(q, k, eye, 1)[0], (3, 5), (5, 5))

    def test_log_softmax(self):
        check_op(lambda a: T.log_softmax(a, axis=-1), (3, 5))

    def test_sum_mean(self):
        check_op(lambda a: a.sum(axis=0) * a.mean(axis=1, keepdims=True).sum(), (3, 4))

    def test_layer_norm(self):
        check_op(lambda x, g, b: T.layer_norm(x, g, b), (2, 3, 8), (8,), (8,),
                 tol=1e-5)

    def test_embedding(self):
        # the lookup is a gather by an id array; row 1 is picked twice
        ids = np.array([[0, 2], [1, 1]])
        check_op(lambda w: w[ids], (4, 5))

    def test_clip(self):
        check_op(lambda a: T.clip(a, -0.5, 0.5) * a, (6,))

    def test_attention(self):
        check_op(lambda q, k, v: T.mha(q, k, v, 1)[0],
                 (3, 4), (5, 4), (5, 4), tol=1e-5)

    def test_attention_masked(self):
        mask = np.zeros((3, 5))
        mask[:, -1] = -np.inf
        check_op(lambda q, k, v: T.mha(q, k, v, 1, mask=mask)[0],
                 (3, 4), (5, 4), (5, 4), tol=1e-5)

    @pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
    def test_linear(self, x_shape):
        check_op(T.linear, x_shape, (4, 5), (5,))

    def test_linear_without_bias(self):
        check_op(T.linear, (2, 3, 4), (4, 5))

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("lead,q_len,k_len,masked", [
        ((), 3, 3, False),
        ((2,), 3, 5, False),
        ((2,), 3, 5, True),
        ((2, 2), 3, 4, False),     # (B, M, L, D), as in the vision blocks
        ((2, 2), 2, 4, True),
    ])
    def test_mha(self, lead, q_len, k_len, masked, heads):
        mask = None
        if masked:  # (B, 1, 1, K) like the text mask: last key blocked
            mask = np.zeros(lead[:1] + (1,) * (len(lead) - 1)
                            + (1, 1, k_len))
            mask[..., -1] = -1e30
        check_op(lambda q, k, v: T.mha(q, k, v, heads, mask=mask)[0],
                 lead + (q_len, 8), lead + (k_len, 8), lead + (k_len, 8),
                 tol=1e-5)

    def test_cosine_similarity(self):
        check_op(lambda a, b: T.cosine_similarity_matrix(a, b), (3, 4), (3, 4),
                 tol=1e-5)

    def test_cross_entropy(self):
        targets = np.array([1, 0, 2])
        check_op(lambda l: T.cross_entropy(l, targets), (3, 4))


class TestTensorBasics:
    def test_shape_data_invariant(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert math.prod(t.shape) == t.data.size

    def test_backward_populates_reachable_grads(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 3.0
        c = (b * b).sum()
        c.backward()
        assert a.grad is not None and a.grad.shape == a.shape
        assert b.grad is not None and b.grad.shape == b.shape
        # c = sum((3a)^2), dc/da = 18a
        np.testing.assert_allclose(a.grad, [18.0, 36.0])

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).sum().backward()
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [8.0])

    def test_shared_node_diamond(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        c = (b + b).sum()
        c.backward()
        np.testing.assert_allclose(a.grad, [12.0])

    def test_detach_blocks_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 2.0
        c = (b.detach() * a).sum()
        c.backward()
        # only the direct path contributes: d/da (2a_const * a) = 2a values
        np.testing.assert_allclose(a.grad, [2.0, 4.0])
        assert b.grad is None

    def test_detached_tensor_has_no_producers(self):
        a = Tensor([1.0], requires_grad=True)
        d = (a * 5.0).detach()
        assert d.requires_grad is False
        out = (d * d).sum()
        assert out.requires_grad is False

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (a * 2.0).backward()


class TestGraphConsumed:
    def test_sweep_frees_dropped_intermediates(self):
        a = Tensor(np.random.default_rng(20).normal(size=(3, 4)),
                   requires_grad=True)
        b = a * 3.0
        held = T.gelu(b)
        loss = (held * b).sum()
        dropped = weakref.ref(b), weakref.ref(b.data)
        del b
        assert all(r() is not None for r in dropped)  # the graph holds b
        loss.backward()
        assert all(r() is None for r in dropped)
        # a held Tensor keeps its data and gets its gradient
        assert held.grad is not None and held.grad.shape == held.shape
        assert held._parents == () and loss._parents == ()
        assert a.grad is not None and a.grad.shape == a.shape

    def test_second_sweep_through_consumed_node_raises(self):
        x = Tensor(np.random.default_rng(21).normal(size=(2, 3)),
                   requires_grad=True)
        y = T.gelu(x)
        y.sum().backward()
        before = x.grad.copy()
        with pytest.raises(GraphError):
            (y * y).sum().backward()
        # raised before the sweep touched any gradient
        assert np.array_equal(x.grad, before)

    def test_consumed_node_leaves_later_leaf_grad_unchanged(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        # made after y, so the sweep below reaches z before y
        z = Tensor(np.arange(3.0), requires_grad=True)
        z.grad = np.full(3, 5.0)
        with pytest.raises(GraphError):
            (y * z).sum().backward()
        np.testing.assert_array_equal(z.grad, [5.0, 5.0, 5.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_second_sweep_from_consumed_root_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        with pytest.raises(GraphError):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


class TestNumericContracts:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(6, 8)) * 10)
        k = Tensor(rng.normal(size=(9, 8)))
        _, w = T.mha(q, k, k, 2)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    @given(st.integers(2, 6), st.integers(2, 8), st.sampled_from([1, 2, 4]),
           st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_sum_property(self, n, m, heads, seed):
        rng = np.random.default_rng(seed)
        q = Tensor(rng.normal(size=(n, 4)) * 5)
        k = Tensor(rng.normal(size=(m, 4)) * 5)
        _, w = T.mha(q, k, k, heads)
        assert w.shape == (heads, n, m)
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-12)

    def test_layer_norm_moments_before_affine(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(5, 16)) * 3 + 1)
        gain = Tensor(np.ones(16))
        bias = Tensor(np.zeros(16))
        y = T.layer_norm(x, gain, bias).data
        assert np.all(np.abs(y.mean(axis=-1)) <= 1e-6)
        assert np.all(np.abs(y.var(axis=-1) - 1.0) <= 1e-4)

    def test_cosine_zero_norm_raises(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with pytest.raises(NumericError):
            T.cosine_similarity_matrix(a, b)


def ulps_apart(a, b) -> np.ndarray:
    """|a - b| in units in the last place, for float64 arrays whose
    elements agree in sign."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


ERF_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
    -np.nextafter(1.0, 2.0), 6.0, -6.0, np.nextafter(6.0, 0.0), 1e308,
    -1e308, 1.3e154, 1.4e154, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
    np.finfo(np.float64).tiny, 1e-30, 3.0, -2.5])


class TestErf:
    """The numpy port of Cephes's erf against SciPy's, which runs the
    same Cephes code: bit for bit where |x| <= 1, within 1 ulp beyond
    (np.exp stands in for libm's exp there)."""

    def test_matches_scipy(self):
        scipy_erf = pytest.importorskip("scipy.special").erf
        rng = np.random.default_rng(24)
        x = np.concatenate([rng.normal(scale=s, size=200_000)
                            for s in (1e-6, 0.1, 0.3, 0.7, 1.0, 2.0, 4.0)]
                           + [rng.uniform(-1.0, 1.0, 400_000)])
        got, want = T.erf(x), scipy_erf(x)
        near = np.abs(x) <= 1.0
        assert near.sum() >= 1_000_000
        assert got[near].tobytes() == want[near].tobytes()
        assert ulps_apart(got, want).max() <= 1

    def test_edges(self):
        scipy_erf = pytest.importorskip("scipy.special").erf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.erf(ERF_EDGES)
        want = scipy_erf(ERF_EDGES)
        assert ulps_apart(got, want).max() <= 1
        exact = (np.abs(ERF_EDGES) <= 1.0) | (np.abs(ERF_EDGES) >= 6.0)
        assert got[exact].tobytes() == want[exact].tobytes()
        assert np.array_equal(got[np.abs(ERF_EDGES) >= 6.0],
                              np.sign(ERF_EDGES[np.abs(ERF_EDGES) >= 6.0]))
        assert np.signbit(T.erf(-0.0)) and T.erf(0.0) == 0.0
        assert np.isnan(T.erf(np.array([np.nan, 0.5, 2.0]))[0])

    @pytest.mark.parametrize("make", [
        lambda x: x.reshape(6, 50)[:, ::3],
        lambda x: x.reshape(6, 50).T,
        lambda x: x[7, ...],
        lambda x: x[:0],
        lambda x: x[:0].reshape(0, 3),
    ], ids=["strided", "transposed", "0-d", "empty", "empty-2d"])
    def test_any_layout(self, make):
        # erf: the values of a contiguous copy, in the input's shape, with
        # no warning from a NaN, an infinity or an overflowing x * x; gelu
        # forward and backward on the same layout of finite inputs, 0-d
        # aside
        rng = np.random.default_rng(3)
        clean = rng.normal(scale=2.0, size=300)
        odd = clean.copy()
        odd[[1, 5, 9, 20]] = [np.nan, np.inf, -1e200, 1e300]
        for x in (odd, clean):
            view = make(x)
            before = view.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = T.erf(view)
                if x is clean and view.ndim:
                    y = T.gelu(Tensor(view, requires_grad=True))
                    (gx,) = y._backward_fn(np.ones(y.shape))
                    assert y.shape == gx.shape == view.shape
            assert got.shape == view.shape
            want = T.erf(np.ascontiguousarray(view).reshape(-1))
            assert got.reshape(-1).tobytes() == want.tobytes()
            assert view.tobytes() == before.tobytes()


class TestAttentionExamples:
    def test_identity_rows_are_convex_combinations(self):
        q = k = v = Tensor(np.eye(2))
        out, w = T.mha(q, k, v, 1)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(w >= 0)
        # rows of the output live in the convex hull of V's rows
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_identical_keys_give_mean_of_values(self):
        rng = np.random.default_rng(3)
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(np.tile(rng.normal(size=(1, 3)), (5, 1)))
        v = Tensor(rng.normal(size=(5, 3)))
        out, _ = T.mha(q, k, v, 1)
        expected = np.tile(v.data.mean(axis=0), (4, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hand_computed_softmax_row(self):
        q = Tensor(np.array([[10.0, 0.0]]))
        k = Tensor(np.eye(2))
        v = Tensor(np.eye(2))
        out, _ = T.mha(q, k, v, 1)
        # scores are [10/sqrt(2), 0]; the oracle is the scalar softmax
        s = 10.0 / math.sqrt(2.0)
        p = 1.0 / (1.0 + math.exp(-s))
        np.testing.assert_allclose(out.data, [[p, 1.0 - p]], atol=1e-12)
        np.testing.assert_allclose(out.data, [[0.9990, 0.0010]], atol=2e-4)

    def test_attention_differentiable_through_qkv(self):
        check_op(lambda q, k, v: T.mha(q, k, v, 1)[0],
                 (2, 3), (4, 3), (4, 3), seed=7, tol=1e-5)

    def test_zero_query_gives_uniform_weights(self):
        rng = np.random.default_rng(4)
        k = Tensor(rng.normal(size=(2, 5, 8)))
        _, w = T.mha(Tensor(np.zeros((2, 3, 8))), k, k, 4)
        np.testing.assert_allclose(w, 0.2, atol=1e-15)

    def test_large_scores_stay_finite(self):
        # scores near 6e4 overflow exp() unless the row max comes off first
        q = Tensor(np.array([[300.0, 0.0], [0.0, -300.0]]))
        k = Tensor(np.array([[300.0, 0.0], [0.0, 300.0], [-300.0, 0.0]]))
        out, w = T.mha(q, k, k, 1)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(out.data))
        np.testing.assert_allclose(w[0, 0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(w[0, 1], [0.5, 0.0, 0.5], atol=1e-12)

    def test_masked_keys_get_no_weight(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(2, 3, 8)))
        k = Tensor(rng.normal(size=(2, 4, 8)))
        mask = np.zeros((2, 1, 1, 4))
        mask[0, ..., 3] = -1e30
        mask[1, ..., :2] = -1e30
        _, w = T.mha(q, k, k, 2, mask=mask)
        assert np.all(w[0, ..., 3] < 1e-300)
        assert np.all(w[1, ..., :2] < 1e-300)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    # batch 5 against 2, an extra leading axis that would enlarge the
    # (2, 2, 3, 3) scores, and 4 keys against 3
    @pytest.mark.parametrize("shape", [(5, 1, 1, 3), (2, 2, 2, 3, 3),
                                       (2, 2, 3, 4)])
    def test_mask_that_does_not_fit_scores_raises(self, shape):
        rng = np.random.default_rng(6)
        q, k = (Tensor(rng.normal(size=(2, 3, 8))) for _ in range(2))
        with pytest.raises(ShapeError):
            T.mha(q, k, k, 2, mask=np.zeros(shape))


# the composites the fused kernels replaced, kept as references: sqrt and
# softmax as single nodes, everything else from the remaining primitives


def ref_sqrt(x):
    out = np.sqrt(x.data)
    return Tensor._from_op(out, (x,), lambda g: (g * 0.5 / out,))


def ref_softmax(x):
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return Tensor._from_op(
        y, (x,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def ref_linear(x, w, b):
    return x @ w + b


def ref_layer_norm(x, gain, bias, eps=1e-8):
    mu = x.sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
    xc = x + (-mu)
    var = (xc * xc).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
    return xc / ref_sqrt(var + eps) * gain + bias


def _swap(x, a, b):
    perm = list(range(x.ndim))
    perm[a], perm[b] = perm[b], perm[a]
    return x.transpose(tuple(perm))


def ref_mha(q, k, v, heads, mask=None):
    def split(x):
        *lead, length, d = x.shape
        return _swap(x.reshape(*lead, length, heads, d // heads), -3, -2)

    qs, ks, vs = split(q), split(k), split(v)
    scores = (qs @ _swap(ks, -1, -2)) * (1.0 / math.sqrt(qs.shape[-1]))
    if mask is not None:
        scores = scores + Tensor(mask)
    w = ref_softmax(scores)
    o = _swap(w @ vs, -3, -2)
    return o.reshape(*o.shape[:-2], o.shape[-2] * o.shape[-1]), w.data


# (2, 1, 1, 3) additive mask blocking the last of three keys
MASK = np.where(np.arange(3) < 2, 0.0, -1e30)[None, None, None, :] \
    * np.ones((2, 1, 1, 1))


class TestFusedMatchesReference:
    """Fused forward equals the composed reference bit for bit; the
    closed-form backward agrees within 1e-12 of the largest gradient."""

    CASES = {
        "linear": (T.linear, ref_linear, [(2, 3, 5, 8), (8, 6), (6,)]),
        "linear-no-bias": (T.linear, lambda x, w: x @ w,
                           [(2, 3, 5, 8), (8, 6)]),
        "layer_norm": (T.layer_norm, ref_layer_norm, [(2, 5, 8), (8,), (8,)]),
        "mha": (lambda q, k, v: T.mha(q, k, v, 4)[0],
                lambda q, k, v: ref_mha(q, k, v, 4)[0],
                [(2, 3, 5, 8), (2, 3, 7, 8), (2, 3, 7, 8)]),
        "mha-masked": (
            lambda q, k, v: T.mha(q, k, v, 2, mask=MASK)[0],
            lambda q, k, v: ref_mha(q, k, v, 2, mask=MASK)[0],
            [(2, 5, 8), (2, 3, 8), (2, 3, 8)]),
        "sub": (lambda a, b: a - b, lambda a, b: a + (-b), [(3, 4), (4,)]),
        "mean": (lambda a: a.mean(axis=1), lambda a: a.sum(axis=1) * 0.25,
                 [(3, 4, 2)]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_forward_bits_and_backward(self, case):
        fused, ref, shapes = self.CASES[case]
        rng = np.random.default_rng(11)
        arrays = [rng.normal(size=s) for s in shapes]
        grads = []
        for build in (fused, ref):
            ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = build(*ts)
            if build is fused:
                want = out.data
            else:
                assert np.array_equal(out.data, want)
            proj = np.random.default_rng(12).normal(size=out.shape)
            (out * Tensor(proj)).sum().backward()
            grads.append([t.grad for t in ts])
        for a, b in zip(*grads):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_mha_weights_match(self):
        rng = np.random.default_rng(13)
        q, k = (Tensor(rng.normal(size=(2, 3, 8))) for _ in range(2))
        assert np.array_equal(T.mha(q, k, k, 2, mask=MASK)[1],
                              ref_mha(q, k, k, 2, mask=MASK)[1])

    def test_dropout_matches_masked_product(self):
        x = Tensor(np.random.default_rng(14).normal(size=(4, 6)),
                   requires_grad=True)
        out = T.dropout(x, 0.3, np.random.default_rng(15))
        keep = (np.random.default_rng(15).random((4, 6)) >= 0.3) / 0.7
        assert np.array_equal(out.data, (x * Tensor(keep)).data)
        out.sum().backward()
        assert np.array_equal(x.grad, keep)


# each kernel's plain out-of-place expression, one new array per stage: the
# kernels run the same operations in place and must match these bit for
# bit, forward and backward


def oop_linear(x, w, b):
    out = x.data @ w.data + b.data

    def back(g):
        rows = g.reshape(-1, g.shape[-1])
        return (g @ w.data.T, x.data.reshape(-1, x.shape[-1]).T @ rows,
                rows.sum(axis=0))

    return Tensor._from_op(out, (x, w, b), back)


def oop_layer_norm(x, gain, bias):
    inv_n = 1.0 / x.shape[-1]
    xc = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) * inv_n + T.LN_EPS)
    xhat = xc / std
    out = xhat * gain.data + bias.data

    def back(g):
        gh = g * gain.data
        gx = (gh - gh.sum(axis=-1, keepdims=True) * inv_n
              - xhat * (gh * xhat).sum(axis=-1, keepdims=True) * inv_n) / std
        return (gx, T._unbroadcast(g * xhat, gain.shape),
                T._unbroadcast(g, bias.shape))

    return Tensor._from_op(out, (x, gain, bias), back)


def oop_gelu(x):
    phi = 0.5 * (1.0 + T.erf(x.data * (1.0 / math.sqrt(2.0))))
    out = x.data * phi

    def back(g):
        pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
        return (g * (phi + x.data * pdf),)

    return Tensor._from_op(out, (x,), back)


def oop_mha(q, k, v, heads, mask=None):
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    qs, ks, vs = (T._split_heads(t.data, heads) for t in (q, k, v))
    scores = (qs @ np.swapaxes(ks, -1, -2)) * scale
    if mask is not None:
        scores = scores + np.asarray(mask, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    o = weights @ vs

    def back(g):
        go = T._split_heads(g, heads)
        gw = go @ np.swapaxes(vs, -1, -2)
        gs = weights * (gw - (go * o).sum(axis=-1, keepdims=True)) * scale
        return (T._merge_heads(gs @ ks),
                T._merge_heads(np.swapaxes(gs, -1, -2) @ qs),
                T._merge_heads(np.swapaxes(weights, -1, -2) @ go))

    return Tensor._from_op(T._merge_heads(o), (q, k, v), back), weights


def oop_dropout(x, p, rng, shape=None, rows=None):
    keep = (rng.random(x.shape if rows is None else shape) >= p) / (1.0 - p)
    if rows is not None:
        keep = keep[:, rows].reshape(x.shape)
    return Tensor._from_op(x.data * keep, (x,), lambda g: (g * keep,))


def oop_getitem(x, key):
    out = x.data[key]

    def back(g):
        gx = np.zeros(x.shape, dtype=np.float64)
        np.add.at(gx, key, g)
        return (gx,)

    return Tensor._from_op(np.array(out, dtype=np.float64), (x,), back)


# a full-shape additive mask for (2, 2 heads, 5, 3) scores, -1e30 where
# blocked, at least one key open per row
FULL_MASK = np.where(np.random.default_rng(30).random((2, 2, 5, 3)) < 0.4,
                     -1e30, 0.0)
FULL_MASK[..., 0] = 0.0
DROP_ROWS = np.array([0, 3, 4])
# an advanced key that picks (0, 1) and (2, 1) twice each
DUP_KEY = (np.array([0, 2, 0, 2]), np.array([1, 1, 1, 3]))


def _drop(kernel, rows=None):
    # each call draws its mask from a fresh generator on one seed
    if rows is None:
        return lambda x: kernel(x, 0.3, np.random.default_rng(31))
    return lambda x: kernel(x, 0.3, np.random.default_rng(31),
                            shape=(2, 6, 4), rows=rows)


def _outputs(res):
    """(output Tensor, [attention weights]) of an mha result, (output
    Tensor, []) of any other kernel's."""
    return (res[0], list(res[1:])) if isinstance(res, tuple) else (res, [])


class TestInPlaceKernelsPinned:
    """Every in-place kernel gives the bits of its out-of-place expression:
    output, the attention weights it returns and every input gradient,
    for an upstream gradient laid out in C order and one laid out
    transposed."""

    CASES = {
        "linear": (T.linear, oop_linear, [(2, 3, 5, 8), (8, 6), (6,)]),
        "linear-2d": (T.linear, oop_linear, [(5, 8), (8, 6), (6,)]),
        "layer_norm": (T.layer_norm, oop_layer_norm, [(2, 5, 8), (8,), (8,)]),
        "layer_norm-strided": (
            lambda x, gn, b: T.layer_norm(x.swap_last(), gn, b),
            lambda x, gn, b: oop_layer_norm(x.swap_last(), gn, b),
            [(2, 8, 5), (8,), (8,)]),
        "gelu": (T.gelu, oop_gelu, [(3, 4, 7)]),
        "gelu-strided": (lambda x: T.gelu(x.swap_last()),
                         lambda x: oop_gelu(x.swap_last()), [(3, 7, 4)]),
        "mha": (lambda q, k, v: T.mha(q, k, v, 4),
                lambda q, k, v: oop_mha(q, k, v, 4),
                [(2, 3, 5, 8), (2, 3, 7, 8), (2, 3, 7, 8)]),
        "mha-masked": (lambda q, k, v: T.mha(q, k, v, 2, mask=MASK),
                       lambda q, k, v: oop_mha(q, k, v, 2, mask=MASK),
                       [(2, 5, 8), (2, 3, 8), (2, 3, 8)]),
        "mha-full-mask": (lambda q, k, v: T.mha(q, k, v, 2, mask=FULL_MASK),
                          lambda q, k, v: oop_mha(q, k, v, 2,
                                                  mask=FULL_MASK),
                          [(2, 5, 8), (2, 3, 8), (2, 3, 8)]),
        "dropout": (_drop(T.dropout), _drop(oop_dropout), [(5, 6)]),
        "dropout-rows": (_drop(T.dropout, DROP_ROWS),
                         _drop(oop_dropout, DROP_ROWS), [(6, 4)]),
        "getitem-slice": (lambda x: x[1:, None, ..., ::2],
                          lambda x: oop_getitem(
                              x, (slice(1, None), None, Ellipsis,
                                  slice(None, None, 2))),
                          [(3, 4, 5)]),
        "getitem-int": (lambda x: x[-1, 2], lambda x: oop_getitem(x, (-1, 2)),
                        [(3, 4, 5)]),
        "getitem-advanced-dup": (lambda x: x[DUP_KEY],
                                 lambda x: oop_getitem(x, DUP_KEY),
                                 [(3, 4, 5)]),
    }

    @staticmethod
    def _run(build, arrays, grads):
        """[output, weights if any, every input gradient for each of
        grads] of one build on fresh leaves."""
        out, extras = _outputs(
            build(*[Tensor(a.copy(), requires_grad=True) for a in arrays]))
        return [out.data, *extras] + [gx for g in grads
                                      for gx in out._backward_fn(g)]

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_bits_as_out_of_place(self, case):
        kernel, ref, shapes = self.CASES[case]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            arrays = [rng.normal(size=s) for s in shapes]
            g = rng.normal(
                size=_outputs(ref(*[Tensor(a) for a in arrays]))[0].shape)
            g_t = np.ascontiguousarray(np.swapaxes(g, 0, -1)).swapaxes(0, -1)
            got, want = (self._run(build, arrays, [g, g_t])
                         for build in (kernel, ref))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", list(CASES))
    def test_leaves_its_operands_alone(self, case):
        # the inputs, the masks, the upstream gradient, the output and the
        # returned weights keep their bits through forward and backward
        kernel, _, shapes = self.CASES[case]
        rng = np.random.default_rng(40)
        ts = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        out, extras = _outputs(kernel(*ts))
        watched = [t.data for t in ts] + [MASK, FULL_MASK, out.data, *extras]
        before = [a.copy() for a in watched]
        g = rng.normal(size=out.shape)
        g0 = g.copy()
        out._backward_fn(g)
        assert g.tobytes() == g0.tobytes()
        (out * Tensor(g)).sum().backward()
        for a, b in zip(watched, before):
            assert a.tobytes() == b.tobytes()


class TestNoGrad:
    def test_builds_no_graph(self):
        rng = np.random.default_rng(16)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        with T.no_grad():
            h = T.linear(x, w, b)
            outs = [h, T.layer_norm(h, b + 1.0, b), T.mha(h, h, h, 2)[0],
                    (h - x).mean(), T.dropout(h, 0.5, rng)]
        for out in outs:
            assert out.requires_grad is False
            assert out._parents == () and out._backward_fn is None
        assert T.linear(x, w, b).requires_grad

    def test_mode_restored_after_nesting(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not (w * 2.0).requires_grad
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_mode_restored_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.linear(w, Tensor(np.ones((3, 3))), Tensor(np.ones(3)))
        out = (w * 2.0).sum()
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_mode_is_per_thread(self):
        # a no_grad block in one thread neither stops graph building in
        # another nor outlives its own exit there
        w = Tensor(np.ones(2), requires_grad=True)
        inside, leave = threading.Event(), threading.Event()
        seen = {}

        def other():
            with T.no_grad():
                seen["inside"] = (w * 2.0).requires_grad
                inside.set()
                leave.wait(10)
            seen["after"] = (w * 2.0).requires_grad

        t = threading.Thread(target=other)
        t.start()
        assert inside.wait(10)
        assert (w * 2.0).requires_grad
        with T.no_grad():
            leave.set()
            t.join(10)
            assert not t.is_alive()
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad
        assert seen == {"inside": False, "after": True}

    def test_same_forward_values(self):
        rng = np.random.default_rng(17)
        q, k = (Tensor(rng.normal(size=(3, 8)), requires_grad=True)
                for _ in range(2))
        live = T.layer_norm(T.mha(q, k, k, 2)[0], q[0], k[0]).data
        with T.no_grad():
            frozen = T.layer_norm(T.mha(q, k, k, 2)[0], q[0], k[0]).data
        assert np.array_equal(live, frozen)


class TestParamRegistry:
    def test_register_and_order(self):
        reg = T.ParamRegistry()
        reg.register("b", np.zeros(2))
        reg.register("a", np.ones(3))
        assert reg.names() == ["b", "a"]
        assert all(t.requires_grad for t in reg.values())

    def test_duplicate_name_rejected(self):
        reg = T.ParamRegistry()
        reg.register("x", np.zeros(1))
        with pytest.raises(ValueError):
            reg.register("x", np.zeros(1))

    def test_views_share_flat_in_registry_order(self):
        reg = T.ParamRegistry()
        b = reg.register("b", np.arange(6.0).reshape(2, 3))
        a = reg.register("a", np.array([7.0]))
        flat = reg.flat
        assert np.array_equal(flat, [0, 1, 2, 3, 4, 5, 7])
        slots = reg.views(flat)
        assert list(slots) == ["b", "a"]
        for t, view in zip((b, a), slots.values()):
            assert t.data.__array_interface__ == view.__array_interface__
        flat[6] = -1.0
        assert a.data[0] == -1.0
        other = reg.views(np.arange(7.0))
        assert other["b"].shape == (2, 3) and other["a"][0] == 6.0

    def test_flat_grad_zero_for_none_and_into_out(self):
        reg = T.ParamRegistry()
        a = reg.register("a", np.zeros((2, 2)))
        reg.register("b", np.zeros(3))
        a.grad = np.arange(4.0).reshape(2, 2).T  # gathered in C order
        out = np.full(7, np.nan)
        assert reg.flat_grad(out=out) is out
        assert np.array_equal(out, [0, 2, 1, 3, 0, 0, 0])
        assert np.array_equal(reg.flat_grad(), out)

    def test_register_after_flat_raises(self):
        reg = T.ParamRegistry()
        reg.register("x", np.zeros(1))
        assert reg.flat.shape == (1,)
        with pytest.raises(ValueError):
            reg.register("y", np.zeros(1))
        assert reg.names() == ["x"]

    def test_gather_counts_and_names_differing_sets(self):
        reg = T.ParamRegistry()
        for name in "abcde":
            reg.register(name, np.zeros(1))
        values = {name: np.zeros(1) for name in "awxyz"}
        with pytest.raises(ShapeError, match=re.escape(
                "4 names the model lacks, first ['w', 'x', 'y']; "
                "4 missing, first ['b', 'c', 'd']")):
            reg.gather(values)
        with pytest.raises(ShapeError, match=re.escape(
                "1 names the model lacks, first ['w']; "
                "0 missing, first []")):
            reg.gather({name: np.zeros(1) for name in "abcdew"})

    def test_trunc_normal_within_two_std(self):
        rng = np.random.default_rng(0)
        w = T.trunc_normal((1000,), rng)
        assert np.all(np.abs(w) <= 2 * T.INIT_STD)
        assert w.std() > 0.005
