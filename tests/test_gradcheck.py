import numpy as np
import pytest

from vlsc import cli
from vlsc import tensor as T
from vlsc.errors import ConfigError, NumericError
from vlsc.gradcheck import grad_check
from vlsc.tensor import ParamRegistry, Tensor


def test_quadratic_exact():
    reg = ParamRegistry()
    reg.register("x", np.array([1.0, 2.0]))

    def loss():
        x = reg["x"]
        return (x * x).sum()

    err = grad_check(loss, reg)
    assert err < 1e-8
    np.testing.assert_allclose(reg["x"].grad, [2.0, 4.0])


def test_constant_loss_zero_error():
    reg = ParamRegistry()
    reg.register("x", np.array([3.0]))

    def loss():
        return reg["x"].sum() * 0.0

    assert grad_check(loss, reg) == 0.0


def test_unread_parameter_is_not_reprobed():
    reg = ParamRegistry()
    reg.register("x", np.array([1.0, 2.0]))
    reg.register("unread", np.array([0.5, -1.0, 3.0]))
    calls = []

    def loss():
        calls.append(1)
        x = reg["x"]
        return (x * x).sum()

    assert grad_check(loss, reg) < 1e-8
    # one analytic pass, then 4 evaluations for each of the 5 elements:
    # the unread ones match their analytic 0 exactly
    assert len(calls) == 1 + 4 * 5


def test_info_nce_style_loss():
    rng = np.random.default_rng(0)
    reg = ParamRegistry()
    reg.register("a", rng.normal(size=(2, 4)))
    reg.register("b", rng.normal(size=(2, 4)))

    def loss():
        sims = T.cosine_similarity_matrix(reg["a"], reg["b"]) * 20.0
        return T.cross_entropy(sims, np.arange(2))

    assert grad_check(loss, reg) < 1e-5


def test_nonfinite_loss_raises():
    reg = ParamRegistry()
    reg.register("x", np.array([0.0]))

    def loss():
        return (reg["x"] ** -1.0).sum()

    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        grad_check(loss, reg)


@pytest.mark.parametrize("kw", [dict(eps=0.0), dict(eps=-1.0),
                                dict(eps=float("nan")),
                                dict(eps=float("inf")),
                                dict(max_elements=0)],
                         ids=["eps-0", "eps-neg", "eps-nan", "eps-inf",
                              "max-elements-0"])
def test_bad_settings_are_config_errors(kw):
    reg = ParamRegistry()
    reg.register("x", np.array([1.0]))
    with pytest.raises(ConfigError):
        grad_check(lambda: (reg["x"] * reg["x"]).sum(), reg, **kw)


def test_sampling_respects_floor_and_seed():
    rng = np.random.default_rng(1)
    reg = ParamRegistry()
    reg.register("w", rng.normal(size=(40, 40)))  # 1600 elements, sampled path

    def loss():
        w = reg["w"]
        return (T.gelu(w) * w).mean()

    e1 = grad_check(loss, reg, max_elements=64, seed=5)
    e2 = grad_check(loss, reg, max_elements=64, seed=5)
    assert e1 == e2
    assert e1 < 1e-6


def test_through_layer_norm_and_attention():
    rng = np.random.default_rng(2)
    reg = ParamRegistry()
    reg.register("q", rng.normal(size=(3, 4)))
    reg.register("k", rng.normal(size=(5, 4)))
    reg.register("v", rng.normal(size=(5, 4)))
    reg.register("g", rng.normal(size=4))
    reg.register("b", rng.normal(size=4))
    w = rng.normal(size=(3, 4))  # fixed projection so the reduction is not
    # invariant to the normalization (mean of squares of a normed row is ~1)

    def loss():
        out, _ = T.mha(reg["q"], reg["k"], reg["v"], 2)
        out = T.layer_norm(out, reg["g"], reg["b"])
        return (out * T.Tensor(w)).sum()

    assert grad_check(loss, reg) < 1e-5


def test_only_the_analytic_pass_builds_a_graph():
    reg = ParamRegistry()
    reg.register("x", np.array([1.0, -2.0]))
    graphs = []

    def loss():
        out = (reg["x"] * reg["x"]).sum()
        graphs.append(out.requires_grad)
        return out

    grad_check(loss, reg)
    assert graphs[0] and not any(graphs[1:]) and len(graphs) > 1


def inject(monkeypatch, op, edit):
    """Make each graph node that T.<op> builds hand its parents
    edit(args, g, grads) in place of grads, its backward's result for
    the upstream gradient g; args are the op's arguments."""
    real = getattr(T, op)

    def faulty(*args, **kwargs):
        res = real(*args, **kwargs)
        node = res[0] if isinstance(res, tuple) else res
        back = node._backward_fn
        if back is not None:
            node._backward_fn = lambda g: edit(args, g, back(g))
        return res
    monkeypatch.setattr(T, op, faulty)


def ln_without_rowsum_term(args, g, grads):
    x, gain = args[0].data, args[1].data
    xc = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LN_EPS)
    xhat = xc / std
    rowsum = (g * gain * xhat).mean(axis=-1, keepdims=True)
    return (grads[0] + xhat * rowsum / std,) + grads[1:]


def gelu_pdf_without_half(args, g, grads):
    x = args[0].data
    return (grads[0] + g * x * (np.exp(-x * x) - np.exp(-0.5 * x * x))
            / np.sqrt(2.0 * np.pi),)


WRONG_BACKWARDS = {
    "mha-key-grad-scaled": ("mha", lambda args, g, grads: (
        grads[0], grads[1] * (1.0 + 1e-3), grads[2])),
    "layer-norm-no-rowsum": ("layer_norm", ln_without_rowsum_term),
    "linear-bias-grad-doubled": ("linear", lambda args, g, grads: (
        grads if len(grads) == 2 else grads[:2] + (2.0 * grads[2],))),
    "gelu-pdf-exp-x2": ("gelu", gelu_pdf_without_half),
}


@pytest.mark.parametrize("fault", list(WRONG_BACKWARDS))
def test_suite_catches_wrong_backward(monkeypatch, fault):
    # the command's suite, at its default settings, must read above
    # GRAD_TOL for a backward off by a small factor in one term
    op, edit = WRONG_BACKWARDS[fault]
    inject(monkeypatch, op, edit)
    worst = 0.0
    for _, err in cli.gradient_suite(seed=0, eps=2e-4, max_elements=64):
        worst = max(worst, err)
        if worst > cli.GRAD_TOL:
            break
    assert worst > cli.GRAD_TOL
