"""The one result type of the asymmetric certification doctrine.

A "violation" verdict is an exact certificate: it carries a witness whose
defining quadratic form re-evaluates to the stated negative value.  An
"evidence" verdict never claims a proof.  Either way `stats` say how the
search reached its `value` (its sample, restart or iteration counts, and its
seed when it draws), never repeating `value` itself.  A
"pass" verdict is a proof too, and comes only from an exact test (the
spectral complete-positivity test, the split-inequality floors of
`cones.split_bound_floors`) or from a certificate that `verify`
re-checks (the decomposition h = P + Q^G behind a "decomposable" pass,
witness {"q"}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
VIOLATION = "violation"
EVIDENCE = "evidence"


@dataclass(frozen=True)
class Verdict:
    """Outcome of any certification test.

    `witness` is None for evidence and for the exact complete-positivity
    pass; its keys are the record-payload names of the test that produced it
    (for example {"vector"} for complete positivity, {"projection",
    "vector"} for k-positivity and {"q"} for a decomposition certificate).
    """

    kind: str
    value: float
    witness: dict | None = None
    stats: dict = field(default_factory=dict)

    @property
    def is_violation(self) -> bool:
        return self.kind == VIOLATION


@dataclass(frozen=True)
class DecompCertificate:
    """A map presented as a sum of a k-positive and a k-copositive part."""

    phi1: object
    phi2: object
    k: int
    residual: float
    part1_verdict: Verdict
    part2_verdict: Verdict
