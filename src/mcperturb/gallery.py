"""Model gallery: the finite chains used for certification and fuzzing.

Infinite-state models are realized by north-west-corner truncation to N
states, with each row's truncated mass added back to column 0. That keeps
the chain irreducible toward the central state the bounds reference, and
matches the structure the drift constructions assume. Truncation error is
reported by the callers, not hidden; there is no truncation-error theory
here.

Models are addressable by name (``build_model("mm1(1, 4)")``), with
parenthesized positional parameters and an optional ``truncation=`` set by
the caller.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field

import numpy as np

from .chains import IntensityMatrix, StochasticMatrix, WeightFunction, _check_count
from .ctmc import batch_arrival_drift, mm1_coefficients
from .errors import InvalidParameters

__all__ = [
    "GalleryModel",
    "funderlic8",
    "meyer4",
    "hessenberg_gi_m_1",
    "odd_even",
    "birth_death",
    "geometric_return",
    "batch_arrival",
    "mm1",
    "GALLERY",
    "list_models",
    "build_model",
]


@dataclass
class GalleryModel:
    name: str
    kind: str                       # "dtmc" | "ctmc"
    chain: StochasticMatrix | IntensityMatrix
    params: dict = field(default_factory=dict)
    truncation: int | None = None
    note: str = ""
    extras: dict = field(default_factory=dict)

    def __repr__(self):
        return f"GalleryModel({self.name!r}, kind={self.kind}, n={self.chain.n})"


def _check_truncation(truncation, least: int) -> None:
    """Raise InvalidParameters unless ``truncation`` is an integer of at least
    ``least``, the smallest size the factory builds."""
    _check_count(truncation, f"truncation must be an integer of at least {least}, "
                             f"got {truncation!r}", least)


_FUNDERLIC = np.array(
    [
        [0.74, 0.11, 0, 0, 0, 0, 0, 0.15],
        [0, 0.689, 0, 0, 0.011, 0, 0, 0.3],
        [0, 0, 0, 0.4, 0, 0, 0, 0.6],
        [0, 0, 0, 0.669, 0.011, 0, 0, 0.32],
        [0, 0, 0, 0, 0.912, 0, 0, 0.088],
        [0, 0, 0, 0, 0, 0.74, 0, 0.26],
        [0, 0, 0, 0, 0, 0, 0.87, 0.13],
        [0.15, 0, 0.047, 0, 0, 0.055, 0.27, 0.478],
    ]
)

_MEYER = np.array([[0, 2, 2, 0], [2, 0, 2, 0], [2, 1, 0, 1], [1, 1, 1, 1]]) / 4.0


def funderlic8() -> GalleryModel:
    """Eight-compartment mammillary-system chain with a dominant hub column."""
    return GalleryModel(
        name="funderlic8",
        kind="dtmc",
        chain=StochasticMatrix(_FUNDERLIC),
        note="compartmental flow model; hub column makes the space small at one step",
    )


def meyer4() -> GalleryModel:
    """Quarter-scaled four-state chain with a known exact group inverse."""
    return GalleryModel(
        name="meyer4",
        kind="dtmc",
        chain=StochasticMatrix(_MEYER),
        note="classic four-state example; group inverse has denominator 1083/2",
    )


def hessenberg_gi_m_1(truncation: int = 200, base: float = 0.3, ratio: float = 0.5) -> GalleryModel:
    """Lower-Hessenberg service-queue embedding with geometric arrival weights.

    Row i jumps to column 0 with whatever mass the geometric weights
    a_k = base * ratio^k (placed on columns i+1 down to 1) leave over; the
    sum of the a_k must stay below 1. The single guaranteed drop to state 0
    makes the whole space small at one step.
    """
    if not (0 < ratio < 1) or base <= 0:
        raise InvalidParameters("need base > 0 and 0 < ratio < 1")
    total = base / (1 - ratio)
    if total >= 1:
        raise InvalidParameters(f"arrival weights sum to {total:g} >= 1")
    _check_truncation(truncation, 1)
    N = truncation
    a = base * ratio ** np.arange(N + 1)
    P = np.zeros((N, N))
    for i in range(N):
        width = min(i + 1, N - 1)
        cols = np.arange(1, width + 1)
        P[i, cols] = a[i + 1 - cols]
        P[i, 0] = 1.0 - P[i].sum()      # includes any mass truncated past N-1
    return GalleryModel(
        name="hessenberg-gi-m-1",
        kind="dtmc",
        chain=StochasticMatrix(P),
        params={"base": base, "ratio": ratio},
        truncation=N,
        note="service-queue embedding; drop-to-zero mass at least 1 - sum(a_k)",
        extras={"arrival_weight_sum": float(total)},
    )


def odd_even(p: float = 0.5, truncation: int = 200, periodic: bool = False) -> GalleryModel:
    """Climb-with-resets chain: odd states reset to 0, even states to 1.

    Every state climbs one step with probability q = 1 - p; odd states drop
    to 0 and even states (and 0 itself) feed state 1 with probability p.
    The two-step kernel puts common mass p^2 on column 0.

    ``periodic=True`` replaces the holding jump at state 0 by a sure move
    to 1, which makes the chain two-periodic. The truncation level is kept
    even so that the wrap-around at the boundary respects the two-coloring
    (odd rows wrap to 0). Note the constant-profile drift vector with a
    small offset at state 1 fails the unit drift inequality there; the
    minimal valid drift function is the hitting-time vector, whose supremum
    is 2/p.
    """
    if not 0 < p < 1:
        raise InvalidParameters("p must lie in (0, 1)")
    _check_truncation(truncation, 2)
    N = truncation
    if periodic and N % 2 != 0:
        N += 1                           # keep the boundary wrap parity-safe
    q = 1.0 - p
    P = np.zeros((N, N))
    if periodic:
        P[0, 1] = 1.0
    else:
        P[0, 0] = p
        P[0, 1] = q
    for i in range(1, N):
        if i % 2 == 1:
            P[i, 0] = p
        else:
            P[i, 1] = p
        if i + 1 < N:
            P[i, i + 1] = q
        else:
            P[i, 0] += q
    return GalleryModel(
        name="odd-even-p",
        kind="dtmc",
        chain=StochasticMatrix(P),
        params={"p": p, "periodic": periodic},
        truncation=N,
        note="climb/reset chain; two-step common mass p^2 on column 0",
    )


def birth_death(n: int = 20, a=0.3, b=0.3, c=0.4) -> GalleryModel:
    """Birth-death chain on states 0..n with down/up/stay vectors a, b, c.

    Scalars broadcast to the interior with the leftover probability folded
    into the boundary holding terms; explicit vectors (length n + 1 with
    a[0] = b[n] = 0) are taken as-is. All-zero stay vectors give a
    two-periodic chain.
    """
    if n < 1:
        raise InvalidParameters("need at least two states")
    if np.isscalar(a):
        if abs(a + b + c - 1.0) > 1e-12:
            raise InvalidParameters("scalar a + b + c must equal 1")
        av = np.r_[0.0, np.full(n, a)]
        bv = np.r_[np.full(n, b), 0.0]
        cv = 1.0 - av - bv
    else:
        av = np.asarray(a, dtype=float).ravel()
        bv = np.asarray(b, dtype=float).ravel()
        cv = np.asarray(c, dtype=float).ravel()
        if av.size != n + 1 or bv.size != n + 1 or cv.size != n + 1:
            raise InvalidParameters("vectors a, b, c must have length n + 1")
    P = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        if i > 0:
            P[i, i - 1] = av[i]
        if i < n:
            P[i, i + 1] = bv[i]
        P[i, i] = cv[i]
    return GalleryModel(
        name="birth-death",
        kind="dtmc",
        chain=StochasticMatrix(P),
        params={"n": n, "a": av, "b": bv, "c": cv},
        note="nearest-neighbor chain with closed-form hitting times",
        extras={"a": av, "b": bv, "c": cv},
    )


def geometric_return(p: float = 0.5, truncation: int = 200) -> GalleryModel:
    """Climb chain with per-step return: state 0 feeds 1, others drop to 0
    with probability p or climb. With constant p the return to 0 is
    geometric from every state, so all hitting times onto 0 equal 1/p.

    The boundary row keeps its climb mass as a self-loop instead of wrapping
    it to column 0: wrapping would make the last states hit 0 faster than
    geometrically and destroy the constant-hitting-time structure the model
    exists to exhibit. The chain stays irreducible through the drop edges.
    """
    if not 0 < p < 1:
        raise InvalidParameters("p must lie in (0, 1)")
    _check_truncation(truncation, 2)
    N = truncation
    q = 1.0 - p
    P = np.zeros((N, N))
    P[0, 1] = 1.0
    for i in range(1, N):
        P[i, 0] = p
        if i + 1 < N:
            P[i, i + 1] = q
        else:
            P[i, i] = q
    return GalleryModel(
        name="geometric-return",
        kind="dtmc",
        chain=StochasticMatrix(P),
        params={"p": p},
        truncation=N,
        note="geometric return to 0; mean hitting time 1/p from every state >= 1",
    )


_DEFAULT_BATCH_A = (-1.2, 1.0, 0.2)
_DEFAULT_BATCH_B = (3.0, -3.5, 0.3, 0.2)


def batch_arrival(a=_DEFAULT_BATCH_A, b=_DEFAULT_BATCH_B, truncation: int = 200) -> GalleryModel:
    """Band generator: row 0 carries the `a` coefficients, rows i >= 1 the
    `b` band starting one column left of the diagonal. Truncated rows fold
    their out-of-range rates into column 0 (rows i >= 1) or drop them with
    the diagonal adjusted (row 0), keeping the generator conservative.

    Defaults describe a service-rate-3 queue with single and double
    arrivals from the empty state and batch arrivals alongside service.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    _check_truncation(truncation, max(a.size, b.size))
    N = truncation
    Q = np.zeros((N, N))
    Q[0, : a.size] = a
    Q[0, 0] = -Q[0, 1:].sum()           # row-0 overflow is dropped, not wrapped
    for i in range(1, N):
        width = min(b.size, N - i + 1)
        Q[i, i - 1 : i - 1 + width] = b[:width]
        overflow = b[width:].sum()
        if overflow > 0:
            Q[i, 0] += overflow
    return GalleryModel(
        name="batch-arrival",
        kind="ctmc",
        chain=IntensityMatrix(Q),
        params={"a": a, "b": b},
        truncation=N,
        note="batch-arrival band generator",
        extras={"a": a, "b": b},
    )


def mm1(sigma: float = 1.0, mu: float = 4.0, truncation: int = 200) -> GalleryModel:
    """Single-server queue generator, arrivals sigma < service mu."""
    if sigma >= mu:
        raise InvalidParameters("need sigma < mu for positive recurrence")
    a, b = mm1_coefficients(sigma, mu)
    model = batch_arrival(a, b, truncation=truncation)
    model.name = "mm1"
    model.params = {"sigma": sigma, "mu": mu}
    model.note = "single-server queue; stationary tail geometric with ratio sigma/mu"
    model.extras = {"a": a, "b": b, "sigma": sigma, "mu": mu}
    return model


def _band_weights(model: GalleryModel) -> WeightFunction | None:
    """The drift weights a band generator model carries: ``batch_arrival_drift``'s
    z0^i on its coefficients ``a`` and ``b``; None for any other model."""
    extras = model.extras
    if model.kind != "ctmc" or not {"a", "b"} <= extras.keys():
        return None
    return batch_arrival_drift(extras["a"], extras["b"], n_states=model.chain.n).weights


GALLERY = {
    "funderlic8": funderlic8,
    "meyer4": meyer4,
    "hessenberg-gi-m-1": hessenberg_gi_m_1,
    "odd-even-p": odd_even,
    "birth-death": birth_death,
    "geometric-return": geometric_return,
    "batch-arrival": batch_arrival,
    "mm1": mm1,
}

_NAME_RE = re.compile(r"^\s*([a-zA-Z0-9_\-]+)\s*(?:\((.*)\))?\s*$")


def list_models() -> list[str]:
    return sorted(GALLERY)


def _takes_truncation(name: str) -> bool:
    """Whether the factory of gallery model ``name`` has a ``truncation``
    parameter."""
    return "truncation" in inspect.signature(GALLERY[name]).parameters


def build_model(spec: str, truncation: int | None = None) -> GalleryModel:
    """Build a gallery model from a name like ``"mm1"`` or ``"mm1(1, 4)"``.

    Positional arguments inside the parentheses are parsed as Python
    literals; ``truncation`` overrides the model default when the model's
    factory has a ``truncation`` parameter, and is rejected otherwise.
    """
    m = _NAME_RE.match(spec)
    if not m:
        raise InvalidParameters(f"cannot parse model spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    if name not in GALLERY:
        raise InvalidParameters(
            f"unknown gallery model {name!r}; known: {', '.join(list_models())}"
        )
    factory = GALLERY[name]
    args = []
    if argstr:
        import ast

        try:
            args = [ast.literal_eval(tok.strip()) for tok in argstr.split(",") if tok.strip()]
        except (ValueError, SyntaxError) as exc:
            raise InvalidParameters(f"cannot parse model arguments {argstr!r}: {exc}") from exc
    kwargs = {}
    if truncation is not None:
        if not _takes_truncation(name):
            raise InvalidParameters(f"model {name!r} does not take a truncation level")
        kwargs["truncation"] = truncation
    return factory(*args, **kwargs)
