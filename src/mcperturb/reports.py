"""Bound reports: the named result of one perturbation bound.

A report records which hypotheses were checked, the bound's numeric
content, and (when a perturbed chain was supplied) the exactly computed
stationary gap together with a validity verdict. Bounds linear in the
perturbation size carry the coefficient ``ell`` (so gap <= ell * ||Delta||);
bounds that are nonlinear functions of the perturbation carry
``direct_value`` instead. A linear bound's report leaves ``delta_norm``
unset: ``with_exact_gap`` applies ||Delta|| and the gap together, in the
catalog and in the fuzz oracle alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["Hypothesis", "BoundReport", "USELESS_THRESHOLD", "covers"]

# any total-variation bound at or above this is vacuous: the gap between two
# probability measures never exceeds 2
USELESS_THRESHOLD = 2.0

# relative slack that absorbs floating-point ties between a tight bound and
# the gap it bounds
_REL_SLACK = 1e-9


def covers(gap: float, value: float) -> bool:
    """Whether a bound value covers an exactly computed gap, up to
    ``_REL_SLACK`` relative plus 1e-15 absolute."""
    return bool(gap <= value * (1.0 + _REL_SLACK) + 1e-15)


@dataclass
class Hypothesis:
    name: str
    holds: bool
    detail: str = ""


@dataclass
class BoundReport:
    bound_name: str
    hypotheses: list[Hypothesis] = field(default_factory=list)
    ell: float | None = None
    direct_value: float | None = None
    delta_norm: float | None = None
    exact_gap: float | None = None
    valid: bool | None = None
    info: dict = field(default_factory=dict)

    @property
    def hypotheses_hold(self) -> bool:
        return all(h.holds for h in self.hypotheses)

    @property
    def bound_value(self) -> float | None:
        """Numeric bound on the stationary gap, when computable.

        Prefers the direct (tighter) form when present; otherwise the
        linear form ell * delta_norm when both pieces are known.
        """
        if self.direct_value is not None:
            return self.direct_value
        if self.ell is not None and self.delta_norm is not None:
            return self.ell * self.delta_norm
        return None

    @property
    def useless(self) -> bool | None:
        """Whether a total-variation value is vacuous; weighted values have
        no trivial cap. A report without a ``norm`` entry is total variation."""
        v = self.bound_value
        if v is None:
            return None
        return self.info.get("norm", "tv") == "tv" and bool(v >= USELESS_THRESHOLD)

    def with_exact_gap(self, gap: float, delta_norm: float | None = None) -> "BoundReport":
        """A copy with an exactly computed gap and the validity verdict.

        ``delta_norm``, when given, is the perturbation norm the copy's
        ``ell`` is applied to. ``valid`` is set on every report that has a
        value: true when the value ``covers`` the gap. This is the one
        verdict rule of the catalog and the fuzz oracle.
        """
        out = BoundReport(self.bound_name, self.hypotheses, self.ell, self.direct_value,
                          self.delta_norm if delta_norm is None else delta_norm,
                          float(gap), None, self.info)
        v = out.bound_value
        if v is not None:
            out.valid = covers(gap, v)
        return out

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["bound_value"] = self.bound_value
        d["hypotheses_hold"] = self.hypotheses_hold
        d["useless"] = self.useless
        return d


def failed_report(bound_name: str, hypothesis: str, detail: str = "") -> BoundReport:
    """Report for a bound whose hypothesis failed (rendered, never raised)."""
    return BoundReport(
        bound_name=bound_name,
        hypotheses=[Hypothesis(hypothesis, False, detail)],
    )
