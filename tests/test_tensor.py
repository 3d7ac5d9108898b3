import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlsc import tensor as T
from vlsc.errors import NumericError, ShapeError
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
        ids = np.array([[0, 2], [1, 1]])
        check_op(lambda w: T.embedding(w, ids), (4, 5))

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

    def test_trunc_normal_within_two_std(self):
        rng = np.random.default_rng(0)
        w = T.trunc_normal((1000,), rng, std=0.02)
        assert np.all(np.abs(w) <= 0.04)
        assert w.std() > 0.005
