"""Check results and relative-error bookkeeping shared by the verifiers."""

from __future__ import annotations

import math
from typing import NamedTuple


def magnitude(z: complex) -> float:
    """abs(z), or inf where abs() overflows on finite parts."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def tolerance(tol: float) -> float:
    """tol, or ValueError for NaN, inf or a negative value: those would
    pass every identity or none."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("expected a finite number >= 0, not %r" % tol)
    return tol


def rel_err(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| scaled by the larger magnitude (floor guards 0 = 0)."""
    return magnitude(lhs - rhs) / max(magnitude(lhs), magnitude(rhs), 1e-300)


class CheckResult(NamedTuple):
    name: str
    lhs: complex
    rhs: complex
    err: float
    passed: bool

    def to_dict(self) -> dict:
        def _num(z: complex):
            z = complex(z)
            return z.real if z.imag == 0.0 else {"re": z.real, "im": z.imag}
        return {"name": self.name, "lhs": _num(self.lhs),
                "rhs": _num(self.rhs), "rel_err": self.err,
                "pass": self.passed}


def check(name: str, lhs: complex, rhs: complex, tol: float,
          absolute: bool = False) -> CheckResult:
    """Build a CheckResult; `absolute` compares |lhs - rhs| directly instead
    of relatively (for identities whose exact value is 0)."""
    err = magnitude(lhs - rhs) if absolute else rel_err(lhs, rhs)
    return CheckResult(name=name, lhs=complex(lhs), rhs=complex(rhs),
                       err=err, passed=(err <= tol))


class Skip(NamedTuple):
    """A brute-force route that did not run: the configurations it would
    visit (predicted before any work), its cap, and why it stopped."""
    route: str
    count: int | float
    cap: int
    reason: str


class Report:
    """The checks one verifier ran, in order, the brute-force routes it
    skipped, and the constants it read."""

    def __init__(self) -> None:
        self.checks: list[CheckResult] = []
        self.skipped: list[Skip] = []
        self.constants: dict = {}

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        out = {"checks": [c.to_dict() for c in self.checks],
               "pass": self.passed,
               "skipped": [s._asdict() for s in self.skipped]}
        if self.constants:
            out["constants"] = {
                k: (v if not isinstance(v, complex)
                    else {"re": v.real, "im": v.imag})
                for k, v in self.constants.items()}
        return out
