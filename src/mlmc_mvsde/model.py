"""Mean-field SDE models: coefficients, noise scale, and built-in examples.

A model is the pair of coefficient maps

    drift(x, mu) -> R^d        diffusion(x, mu) -> R^(d x dbar)

together with the noise scale ``epsilon``, the deterministic initial state,
the horizon, and declared regularity constants. The steppers apply
``epsilon`` themselves; ``diffusion`` never includes it.

The measure ``mu`` is the (M, d) state array of a particle system, read as
the uniform empirical measure over its rows. The steppers call each
coefficient as ``drift(x, x)`` on one system's (M, d) states or on a
(K, M, d) stack of independent systems, and expect (..., M, d) drifts and
(..., M, d, d_bar) diffusions back, each system reduced over its own
particle axis -2 (``particle_mean``). Builtins reduce in canonical sorted
order, so their output is exactly invariant under particle relabeling.
``coefficients(model, x)`` is the one evaluation of a model: it calls both
callables on the states ``x`` and checks the shapes they return.

Coefficient callables must be pure: every system starts from the same
all-x0 states, and its coefficients there are evaluated once per (model, M)
and reused (``ModelSpec.start``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from inspect import Parameter, signature
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError
from .measure import particle_mean

#: ``drift(x, mu)``: one (d,) drift per (d,) state of ``x`` against the measure
#: ``mu``, an (M, d) state array or a (K, M, d) stack matching ``x``
DriftFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``diffusion(x, mu)``: the same arguments -> one (d, d_bar) matrix per state
DiffusionFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: the default of a parameter the caller must set, as ``inspect.signature``
#: reports it for a builder's keyword-only parameter or an engine argument
REQUIRED = Parameter.empty
#: any state beyond this magnitude aborts the run; a model's x0 lies within it
DIVERGENCE_LIMIT = 1e12
#: the other spellings of a parameter
_ALIASES = {"σ": "sigma", "ε": "epsilon", "eps": "epsilon", "κ": "kappa"}


def is_number(val) -> bool:
    """A real number finite as a float: an int, a float or a numpy scalar, never
    a bool or a string (JSON reads NaN and Infinity as floats)."""
    try:
        return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def integer(val, lo: int, field: str | None, hi: float = math.inf, name: str = "") -> int:
    """``val`` as an int if it is an integer (an int or a numpy integer, never a
    bool) in [lo, hi], else a ``ConfigurationError`` on ``field`` that calls it
    ``name`` (``field`` by default). This and the two checks below are the
    argument checks of every entry point's preflight."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral) or not lo <= val <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ConfigurationError(f"{name or field} must be an integer {bound}, got {val!r}", field)
    return int(val)


def positive(val, field: str | None, name: str = ""):
    """``val`` if it is a positive finite number, else a ``ConfigurationError``."""
    if not (is_number(val) and val > 0):
        raise ConfigurationError(f"{name or field} must be a positive finite number, "
                                 f"got {val!r}", field)
    return val


def nonempty(val, field: str):
    """``val`` if it is a non-empty list, tuple or range, else a ``ConfigurationError``."""
    if not (isinstance(val, (list, tuple, range)) and val):
        raise ConfigurationError(f"{field} must be a non-empty list, got {val!r}", field)
    return val


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one mean-field SDE.

    ``lipschitz_K`` and ``growth_beta`` are declared constants: the joint
    Lipschitz bound |f(x,mu)-f(y,nu)|^2 <= K (|x-y|^2 + W2(mu,nu)^2) and the
    growth bound |f(x,mu)|^2 <= beta (1 + |x|^2 + W2(mu)^2), both of which
    hold for the builtins on the sampled validation region (linear drifts
    satisfy them only there, not globally). The state dimension ``d`` is
    derived, as ``len(x0)``; ``dataclasses.replace`` copies a model.
    """

    d_bar: int
    drift: DriftFn
    diffusion: DiffusionFn
    epsilon: float
    x0: np.ndarray
    horizon: float
    lipschitz_K: float
    growth_beta: float
    meta: dict = field(default_factory=dict)
    d: int = field(init=False)
    # M -> (start states, their drift, their diffusion); empty in every new copy
    _start: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "d_bar", integer(self.d_bar, 1, "d_bar"))
        # epsilon = 0 is admitted as the deterministic limit of the family
        if not (is_number(self.epsilon) and 0 <= self.epsilon <= 1):
            raise ConfigurationError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        positive(self.horizon, "horizon")
        for key, val in (("lipschitz_K", self.lipschitz_K), ("growth_beta", self.growth_beta)):
            if not (is_number(val) and val >= 0):
                raise ConfigurationError(f"{key} must be a nonnegative finite number, got {val!r}",
                                         key)
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float)).copy()
        if x0.ndim != 1 or not x0.size:
            raise ShapeError(f"x0 must be a non-empty vector, got shape {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise NumericError("x0 must be finite")
        if np.abs(x0).max() > DIVERGENCE_LIMIT:
            raise ConfigurationError(f"x0 must lie in the trust region |x0| <= "
                                     f"{DIVERGENCE_LIMIT:g}, got {x0.tolist()}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "d", x0.shape[0])

    def start(self, m: int) -> np.ndarray:
        """The read-only (m, d) states at x0 that every system starts from.

        Built once per M, together with their drift and diffusion, which
        ``coefficients`` returns whenever it is given this very array. They
        are evaluated quietly: a non-finite one fails the first step's
        checks, which name it.
        """
        entry = self._start.get(m)
        if entry is None:
            x = np.tile(self.x0, (m, 1))
            with np.errstate(all="ignore"):
                f, g = (a.view() for a in coefficients(self, x))
            for a in (x, f, g):
                a.setflags(write=False)
            entry = self._start.setdefault(m, (x, f, g))
        return entry[0]


@dataclass(frozen=True)
class TestFunction:
    """Scalar observable Psi with a declared first-derivative bound.

    ``psi`` maps (..., d) state stacks to (...) values so it can be applied
    to a whole system at once.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    grad_bound: float
    name: str = "custom"


def coefficients(model: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift (..., M, d) and diffusion (..., M, d, d_bar) of every particle
    against its own system, for the (M, d) states ``x`` of one system or a
    (..., M, d) stack of them.

    The states' shape is checked, the model is called once on the whole
    stack and its outputs shape-checked, under the caller's numpy error
    settings: ``advance`` re-runs it quietly where numpy raises. At the
    states of ``model.start(M)`` themselves the pair evaluated when that
    array was built is returned.
    """
    if x.ndim < 2 or x.shape[-1] != model.d:
        raise ShapeError(f"states have shape {x.shape}, expected (..., M, {model.d})")
    entry = model._start.get(x.shape[-2])
    if entry is not None and entry[0] is x:
        return entry[1], entry[2]
    f = np.asarray(model.drift(x, x), dtype=float)
    if f.shape != x.shape:
        raise ShapeError(f"drift returned shape {f.shape}, expected {x.shape}")
    g_shape = x.shape[:-1] + (model.d, model.d_bar)
    g = np.asarray(model.diffusion(x, x), dtype=float)
    if g.shape != g_shape:
        raise ShapeError(f"diffusion returned shape {g.shape}, expected {g_shape}")
    return f, g


def _derived(name: str, formula: str, value: Callable[[], float | list]) -> float | list:
    """``value()``, the constant (or list of them) that builtin ``name``
    derives from its parameters by ``formula``; one that overflows a float
    is a ``ConfigurationError`` naming both."""
    try:
        out = value()
    except OverflowError:
        out = math.inf
    if not np.isfinite(out).all():
        raise ConfigurationError(f"{name} parameters overflow {formula}")
    return out


def _growth_beta(name: str, formula: str, lipschitz_K: float, f0: float, g0: float) -> float:
    """Builtin ``name``'s growth constant ``2 max(1, K, f0^2, g0^2)``,
    checked by ``_derived`` under the model's own ``formula``."""
    return _derived(name, formula, lambda: 2.0 * max(1.0, lipschitz_K, f0 * f0, g0 * g0))


def _constant_diffusion(matrix: np.ndarray) -> DiffusionFn:
    mat = np.asarray(matrix, dtype=float)
    views: dict[tuple, np.ndarray] = {}  # read-only broadcast view per stack shape

    def diffusion(x, mu):
        shape = x.shape[:-1] + mat.shape
        view = views.get(shape)
        if view is None:
            view = views[shape] = np.broadcast_to(mat, shape)
        return view

    return diffusion


def _zero(x0, T):
    """f = 0, g = 0."""
    d = x0.shape[0]
    return (lambda x, mu: np.zeros_like(x)), _constant_diffusion(np.zeros((d, d))), 0.0, 2.0, {}


def _constant_drift(x0, T, *, c, sigma=1.0):
    """f = c, g = σ."""
    d = x0.shape[0]
    cvec = np.full(d, c)
    beta = _growth_beta("constant_drift", "2 max(1, c^2 d, sigma^2 d)",
                        0.0, abs(c) * math.sqrt(d), abs(sigma) * math.sqrt(d))
    return (lambda x, mu: np.broadcast_to(cvec, x.shape),
            _constant_diffusion(sigma * np.eye(d)), 0.0, beta, {})


def _meanfield_ou(x0, T, *, a, b, sigma=1.0):
    """f(x,μ) = -a x + b (mean(μ) - x), g = σ. The particle mean started from a
    point obeys m(t) = x0 exp(-a t); the exact mean at the horizon is recorded
    in ``meta['exact_mean_at_horizon']``."""
    name, d = "meanfield_ou", x0.shape[0]

    def drift(x, mu, _a=a, _b=b):
        return -_a * x + _b * (particle_mean(mu) - x)

    K = max(_derived(name, "(a + b)^2 + b^2", lambda: (a + b) ** 2 + b**2),
            _derived(name, "sigma^2", lambda: sigma**2))
    beta = _growth_beta(name, "2 max(1, (a + b)^2 + b^2, sigma^2 d)",
                        K, 0.0, abs(sigma) * math.sqrt(d))
    mean = _derived(name, "x0 exp(-a T)", lambda: [x * math.exp(-a * T) for x in x0.tolist()])
    return drift, _constant_diffusion(sigma * np.eye(d)), K, beta, {"exact_mean_at_horizon": mean}


def _kuramoto(x0, T, *, kappa=1.0, sigma=1.0):
    """f(x,μ) = κ mean_j sin(x_j - x) componentwise, g = σ, evaluated in O(M)
    as κ (S cos x - C sin x) with S, C the means of sin x_j and cos x_j. The
    only builtin whose coefficients satisfy the declared bounds globally, not
    just on the validation region."""
    name = "kuramoto"

    def drift(x, mu, _k=kappa):
        # sin(x_j - x) = sin x_j cos x - cos x_j sin x; the steppers pass
        # the system's own states as x, whose sines and cosines serve twice
        sin_x, cos_x = np.sin(x), np.cos(x)
        sin_p, cos_p = (sin_x, cos_x) if mu is x else (np.sin(mu), np.cos(mu))
        return _k * (particle_mean(sin_p) * cos_x - particle_mean(cos_p) * sin_x)

    K = max(_derived(name, "2 kappa^2", lambda: 2.0 * kappa**2),
            _derived(name, "sigma^2", lambda: sigma**2))
    beta = _growth_beta(name, "2 max(1, kappa^2, sigma^2)", 0.0, kappa, sigma)
    return drift, _constant_diffusion(sigma * np.eye(x0.shape[0])), K, beta, {}


def _measure_diffusion(x0, T, *, a=1.0, sigma):
    """f = -a x, g(x,μ) = σ (1 + mean(μ)) on the diagonal."""
    name, d = "measure_diffusion", x0.shape[0]

    def drift(x, mu, _a=a):
        return -_a * x

    def diffusion(x, mu, _s=sigma):
        mat = _s * np.eye(d) * (1.0 + particle_mean(mu))[..., None]
        return np.broadcast_to(mat, x.shape[:-1] + mat.shape[-2:])

    K = max(_derived(name, "a^2", lambda: a**2),
            _derived(name, "2 sigma^2", lambda: 2.0 * sigma**2))
    beta = _growth_beta(name, "2 max(1, a^2, 2 sigma^2, sigma^2 d)",
                        K, 0.0, abs(sigma) * math.sqrt(d))
    return drift, diffusion, K, beta, {}


#: each builtin's builder ``(x0, T, **coefficients) -> (drift, diffusion,
#: lipschitz_K, growth_beta, meta)``; its keyword-only parameters, with their
#: defaults, are the model's parameters besides ``x0``, ``T`` and ``epsilon``
_BUILDERS = {"zero": _zero, "constant_drift": _constant_drift, "meanfield_ou": _meanfield_ou,
             "kuramoto": _kuramoto, "measure_diffusion": _measure_diffusion}
BUILTIN_MODELS = tuple(_BUILDERS)


def _read_params(name: str, params: Mapping) -> dict:
    """Builtin ``name``'s parameters by key, read as floats (``x0`` as a float
    vector) where ``params`` spells them once, else their builder's defaults."""
    table = {"x0": REQUIRED, "T": REQUIRED, "epsilon": REQUIRED}
    table.update((key, p.default) for key, p in signature(_BUILDERS[name]).parameters.items()
                 if p.kind is Parameter.KEYWORD_ONLY)
    if unknown := [s for s in params if _ALIASES.get(s, s) not in table]:
        raise ConfigurationError(f"unknown {name} parameters {unknown}")
    spelt = {}
    for spelling in params:
        key = _ALIASES.get(spelling, spelling)
        if key in spelt:
            raise ConfigurationError(
                f"model parameter '{key}' is given twice, as '{spelt[key]}' and '{spelling}'")
        spelt[key] = spelling
    if missing := [key for key, val in table.items() if val is REQUIRED and key not in spelt]:
        raise ConfigurationError(f"missing model parameter '{missing[0]}'")
    values = dict(table)
    for key, spelling in spelt.items():
        val = params[spelling]
        vector = key == "x0" and (isinstance(val, (list, tuple)) or np.ndim(val) == 1)
        entries = list(val) if vector else [val]
        if not entries or not all(map(is_number, entries)):
            what = " or a non-empty list of them" if key == "x0" else ""
            raise ConfigurationError(
                f"model parameter '{spelling}' must be a finite real number{what}, got {val!r}")
        values[key] = np.array(entries, dtype=float) if key == "x0" else float(val)
    return values


def builtin_model(name: str, params: Mapping) -> ModelSpec:
    """Construct one of the named example models.

    ``params`` holds each parameter of the model at most once, as a finite
    real number: an int, a float or a numpy scalar, never a bool or a string.
    ``x0`` may also be a non-empty list, tuple or 1-D array of them; its
    length is the dimension. ``σ``, ``ε`` or ``eps``, and ``κ`` spell
    ``sigma``, ``epsilon`` and ``kappa``. Every model needs ``x0``, ``T`` and
    ``epsilon``; its other parameters and their defaults are the keyword-only
    parameters of its builder in ``_BUILDERS`` (``_zero``, ``_constant_drift``,
    ``_meanfield_ou``, ``_kuramoto``, ``_measure_diffusion``), whose docstrings
    state its coefficients. A missing parameter without a default, one the
    model does not read, one given under two spellings or one of the wrong
    type is a ``ConfigurationError`` that names it, and so is a finite
    parameter whose derived constants overflow a float (the message names the
    model and the formula). So is an ``x0`` outside the trust region that the
    steppers check, ``|x0| <= 1e12`` (``DIVERGENCE_LIMIT``) per component.
    """
    if name not in BUILTIN_MODELS:
        raise ConfigurationError(f"unknown model '{name}'; expected one of {BUILTIN_MODELS}",
                                 "name")
    p = _read_params(name, params)
    x0, horizon, epsilon = p.pop("x0"), p.pop("T"), p.pop("epsilon")
    drift, diffusion, K, beta, meta = _BUILDERS[name](x0, horizon, **p)
    return ModelSpec(d_bar=x0.shape[0], drift=drift, diffusion=diffusion, epsilon=epsilon,
                     x0=x0, horizon=horizon, lipschitz_K=K, growth_beta=beta, meta=meta)


#: the named observables, each of the first state component
_TEST_FUNCTIONS = {psi.name: psi for psi in (
    TestFunction(lambda x: np.asarray(x, dtype=float)[..., 0], 1.0, "identity"),
    TestFunction(lambda x: np.cos(np.asarray(x, dtype=float)[..., 0]), 1.0, "cos"))}
BUILTIN_TEST_FUNCTIONS = tuple(_TEST_FUNCTIONS)


def builtin_test_function(name: str) -> TestFunction:
    """Named observables: 'identity' (first component) and 'cos'."""
    if name not in BUILTIN_TEST_FUNCTIONS:
        raise ConfigurationError(
            f"unknown test function '{name}'; expected one of {BUILTIN_TEST_FUNCTIONS}")
    return _TEST_FUNCTIONS[name]
