"""The library's conventions.

One dependency: the library imports numpy, the standard library and
itself, nothing else.

One worker pool: threads are started, and OpenBLAS's thread count is set,
only by network's pool helper (_openblas_threads, _one_blas_thread and
_run_tasks), so every parallel caller shares its BLAS hold, its failure
handling and its bit guarantees.  It finds OpenBLAS through numpy: no
module reads /proc, which only Linux has.

One statement of each parameter rule: the library checks each admissible
range of a parameter in one place, and a value outside it raises
ParameterError with the parameter's name, the rule and the value.

One calling convention: a single example is a batch of one.

Every function below takes a batch and returns one row per example, and
an example passed on its own gives a batch of one.  That row must carry
the same bits as the example's row inside a larger batch.  forward and
input_gradient multiply through BLAS, which may block a one-row product
differently, so their rows are compared at rtol 1e-12.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rsdnet

from rsdnet.attacks import AttackConfig, input_gradient
from rsdnet.contamination import check_eta, corrupt_labels, noisy_posterior
from rsdnet.data_io import make_folds, posterior_example1, synthetic_blobs
from rsdnet.divergence import (
    LossSpec,
    ParameterError,
    conditional_sd_risk,
    make_tuning,
    sd_loss,
    softmax,
)
from rsdnet.network import ArchitectureSpec, example_model, forward, init_params
from rsdnet.optimizer import TrainConfig
from rsdnet.theory import (big_psi, bound_grid, default_feature_sample,
                           excess_risk_bound, influence_function, psi)

ARCHS = (
    ArchitectureSpec(3, ((6, "tanh"),), 3),
    ArchitectureSpec(4, ((8, "tanh"), (5, "relu")), 2),
)


POOL_HOME = "network.py"
POOL_FUNCTIONS = {"_openblas_threads", "_one_blas_thread", "_run_tasks"}
# what starts threads or processes, or sets OpenBLAS's thread count
THREAD_STARTERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
                   "start_new_thread", "Process", "Pool"}
THREAD_MODULES = {"_thread", "multiprocessing", "concurrent.futures"}


def pool_uses(tree: ast.AST):
    """(line, enclosing top-level function or None, text) of every use in
    tree of a THREAD_STARTERS name, an import from THREAD_MODULES, or a
    string naming an OpenBLAS thread setter."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(child, (ast.FunctionDef,
                                                    ast.AsyncFunctionDef)):
                inner = child.name
            text = None
            if isinstance(child, ast.Name) and child.id in THREAD_STARTERS:
                text = child.id
            elif isinstance(child, ast.Attribute) and child.attr in THREAD_STARTERS:
                text = child.attr
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and "set_num_threads" in child.value):
                text = child.value
            elif isinstance(child, ast.Import):
                text = next((a.name for a in child.names
                             if a.name in THREAD_MODULES), None)
            elif isinstance(child, ast.ImportFrom) and child.module in THREAD_MODULES:
                text = child.module
            if text is not None:
                found.append((child.lineno, inner, text))
            visit(child, inner)

    visit(tree, None)
    return found


def test_threads_and_blas_counts_only_in_the_pool():
    src = Path(rsdnet.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        for line, owner, text in pool_uses(ast.parse(path.read_text())):
            if not (path.name == POOL_HOME and owner in POOL_FUNCTIONS):
                stray.append(f"{path.name}:{line} {text} (in {owner})")
    assert stray == []
    # the check sees what it looks for
    home = pool_uses(ast.parse((src / POOL_HOME).read_text()))
    assert {owner for _, owner, _ in home} == {"_openblas_threads", "_run_tasks"}
    assert pool_uses(ast.parse(
        "import threading\nimport multiprocessing\n"
        "def f():\n    threading.Thread()\n")) == [
        (2, None, "multiprocessing"), (4, "f", "Thread")]


def test_no_module_reads_proc():
    src = Path(rsdnet.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py"))
            if "/proc/" in path.read_text()] == []


ALLOWED_IMPORTS = {"numpy", "rsdnet"} | sys.stdlib_module_names


def foreign_imports(tree: ast.AST):
    """(line, module) of every import in tree of a module outside
    ALLOWED_IMPORTS; relative imports are the package's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED_IMPORTS]
    return found


def test_the_library_imports_only_numpy_and_the_standard_library():
    src = Path(rsdnet.__file__).parent
    foreign = [f"{path.name}:{line} {name}" for path in sorted(src.glob("*.py"))
               for line, name in foreign_imports(ast.parse(path.read_text()))]
    assert foreign == []
    # the check sees what it looks for
    assert foreign_imports(ast.parse(
        "import os, scipy.linalg\nfrom . import network\n"
        "from numpy.linalg import pinv\nfrom torch import nn\n")) == [
        (1, "scipy.linalg"), (4, "torch")]


CCE = (LossSpec(kind="cce"),)
# a call that breaks each rule: (call, name, value, given)
BROKEN_RULES = {
    "eta": (lambda: check_eta(-0.1), "eta", -0.1, {}),
    "eta-of-J": (lambda: check_eta(0.5, 2), "eta", 0.5, {"J": 2}),
    "J": (lambda: check_eta(0.1, 1), "J", 1, {}),
    "corrupt_labels-eta": (lambda: corrupt_labels(synthetic_blobs(10, 0), 1.0, 0),
                           "eta", 1.0, {}),
    "noisy_posterior-eta": (lambda: noisy_posterior([0.5, 0.5], 1.0), "eta", 1.0, {}),
    "excess_risk_bound-eta": (
        lambda: excess_risk_bound(make_tuning(0.5, -0.5), 0.9, 10), "eta", 0.9,
        {"J": 10}),
    "bound_grid-J": (lambda: bound_grid(0.1, 1), "J", 1, {}),
    "bound_grid-resolution": (lambda: bound_grid(0.1, 10, resolution=0),
                              "resolution", 0, {}),
    "epochs": (lambda: TrainConfig(losses=CCE, epochs=0), "epochs", 0, {}),
    "batch_size": (lambda: TrainConfig(losses=CCE, epochs=1, batch_size=0),
                   "batch_size", 0, {}),
    "epsilon": (lambda: AttackConfig(kind="fgsm", epsilon=np.inf),
                "epsilon", np.inf, {}),
    "step_size": (lambda: AttackConfig(kind="pgd", epsilon=0.1, step_size=0.0),
                  "step_size", 0.0, {}),
    "max_iters": (lambda: AttackConfig(kind="pgd", epsilon=0.1, max_iters=0),
                  "max_iters", 0, {}),
    "k-below-2": (lambda: make_folds(10, 1, 0), "k", 1, {}),
    "k-above-n": (lambda: make_folds(3, 4, 0), "k", 4, {}),
    "theta": (lambda: influence_function(
        example_model("M1"), np.ones(3), make_tuning(0.5, -0.5), [0.0],
        default_feature_sample()), "theta", 3, {}),
    "sample_size": (lambda: default_feature_sample(0), "sample_size", 0, {}),
    "big_psi-sample_size": (lambda: big_psi(
        example_model("M1"), np.ones(2), make_tuning(0.5, -0.5), [], None),
        "sample_size", 0, {}),
    "noisy_posterior-J": (lambda: noisy_posterior([1.0], 0.1), "J", 1, {}),
    "beta": (lambda: make_tuning(1.5, 0.0), "beta", 1.5, {}),
    "lambda-A": (lambda: make_tuning(0.5, -2.5), "lambda", -2.5, {"beta": 0.5}),
    "lambda-B": (lambda: make_tuning(0.5, 3.0), "lambda", 3.0, {"beta": 0.5}),
    "q": (lambda: LossSpec(kind="gce", q=1.5), "q", 1.5, {}),
    "delta": (lambda: LossSpec(kind="tcce", delta=1.0), "delta", 1.0, {}),
}


@pytest.mark.parametrize("case", BROKEN_RULES.values(), ids=list(BROKEN_RULES))
def test_a_broken_rule_raises_a_parameter_error(case):
    call, name, value, given = case
    with pytest.raises(ParameterError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert (info.value.name, info.value.value, info.value.given) == (name, value, given)


def test_a_parameter_error_names_each_parameter_by_its_label():
    exc = ParameterError("eta", "must lie in [0, 0.5)", 0.75, J=2)
    assert str(exc) == "eta must lie in [0, 0.5) for J 2, got 0.75"
    assert exc.render(str.upper) == "ETA must lie in [0, 0.5) for J 2, got 0.75"


@st.composite
def batches(draw):
    """(rng, n, i): a generator for the data, a batch size and a row."""
    n = draw(st.integers(1, 8))
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
            draw(st.integers(0, n - 1)))


@st.composite
def tunings(draw):
    # A = u (1 + beta), B = (1 - u)(1 + beta): admissible, away from 0
    beta = draw(st.floats(0.0, 0.99))
    u = draw(st.floats(0.02, 0.98))
    return make_tuning(beta, (u * (1.0 + beta) - 1.0) / (1.0 - beta))


def assert_row_of_batch(one, batch, i):
    assert one.shape == batch[i:i + 1].shape
    assert np.array_equal(one, batch[i:i + 1])


@given(data=batches(), J=st.integers(2, 5), t=tunings())
def test_sd_loss_and_its_gradients(data, J, t):
    rng, n, i = data
    labels = rng.integers(0, J, n)
    logits = rng.normal(0.0, 2.0, (n, J))
    probs = softmax(logits)
    batch = sd_loss(labels, probs, t)
    assert_row_of_batch(sd_loss(labels[i:i + 1], probs[i:i + 1], t), batch, i)
    assert_row_of_batch(sd_loss(int(labels[i]), probs[i], t), batch, i)
    # LossSpec's gradient is of the batch mean: a row of n is one's over n
    spec = LossSpec(kind="sd", tuning=t)
    batch = spec.value_and_grad_logits(labels, logits)[1]
    for y, z in ((labels[i:i + 1], logits[i:i + 1]), (int(labels[i]), logits[i])):
        assert_row_of_batch(spec.value_and_grad_logits(y, z)[1] / n, batch, i)


@given(data=batches(), J=st.integers(2, 5), t=tunings())
def test_conditional_sd_risk(data, J, t):
    rng, n, i = data
    p_star = softmax(rng.normal(size=J))
    probs = softmax(rng.normal(0.0, 2.0, (n, J)))
    assert_row_of_batch(conditional_sd_risk(p_star, probs[i:i + 1], t),
                        conditional_sd_risk(p_star, probs, t), i)


@given(data=batches(), name=st.sampled_from(["M1", "M2", "M3"]), t=tunings())
def test_example_models_posterior_and_psi(data, name, t):
    rng, n, i = data
    model = example_model(name)
    theta = rng.normal(size=model.n_params)
    x = rng.normal(0.0, 3.0, n)
    for method in (model.logit, model.prob1, model.probs, model.grad,
                   model.grad_prob1, model.hess, model.hess_prob1):
        assert_row_of_batch(method(theta, x[i:i + 1]), method(theta, x), i)
    batch = posterior_example1(x)
    assert_row_of_batch(posterior_example1(x[i:i + 1]), batch, i)
    assert_row_of_batch(posterior_example1(float(x[i])), batch, i)

    def p_star_fn(xs):
        return model.probs(theta + 0.5, xs)

    for ref in (None, p_star_fn):
        batch = psi(model, theta, t, x, ref)
        assert_row_of_batch(psi(model, theta, t, x[i:i + 1], ref), batch, i)
        assert_row_of_batch(psi(model, theta, t, float(x[i]), ref), batch, i)


@given(data=batches(), arch=st.sampled_from(ARCHS))
def test_forward_probs_and_input_gradient(data, arch):
    rng, n, i = data
    params = init_params(arch, int(rng.integers(1000)))
    X = rng.uniform(0.0, 1.0, (n, arch.input_dim))
    labels = rng.integers(0, arch.output_classes, n)
    probs = forward(params, arch, X).probs
    grads = input_gradient(params, arch, X, labels)
    for x, y in ((X[i:i + 1], labels[i:i + 1]), (X[i], labels[i])):
        one = forward(params, arch, x).probs
        assert one.shape == (1, arch.output_classes)
        np.testing.assert_allclose(one, probs[i:i + 1], rtol=1e-12, atol=0)
        one = input_gradient(params, arch, x, y)
        assert one.shape == (1, arch.input_dim)
        np.testing.assert_allclose(one, grads[i:i + 1], rtol=1e-12, atol=0)
