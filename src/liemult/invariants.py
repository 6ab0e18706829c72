"""The s/t invariants, the bound checks, and per-algebra reports.

Definitions (n = dim L, m = dim L^2, M = dim of the Schur multiplier):

    s(L) = (n-1)(n-2)/2 + 1 - M      (non-abelian L only)
    t(L) = n(n-1)/2 - M

so t - s = n - 2 identically.  Every inequality the classification
applies is packaged as a structured check returning (lhs, rhs, holds,
tight) so reports can show tightness patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import LieAlgebra, LieError, Subspace, _memoized
from .multiplier import (
    dim_coordinate_quotient_exterior_square,
    dim_exterior_square,
    dim_multiplier,
    dim_quotient_derived,
    dim_quotient_exterior_square,
    dim_tensor_square,
    is_capable,
)


class AbelianInput(LieError):
    """s(L) is defined for non-abelian algebras only."""


class PreconditionNotMet(LieError):
    pass


class NotCentralIdeal(LieError):
    pass


def s_invariant(L: LieAlgebra) -> int:
    if L.is_abelian:
        raise AbelianInput("s undefined for abelian algebras")
    n = L.dim
    return (n - 1) * (n - 2) // 2 + 1 - dim_multiplier(L)


def t_invariant(L: LieAlgebra) -> int:
    n = L.dim
    return n * (n - 1) // 2 - dim_multiplier(L)


@dataclass(frozen=True)
class BoundCheck:
    check_id: str
    lhs: int
    rhs: int
    holds: bool
    tight: bool | None = None


def check_derived_bound(L: LieAlgebra) -> BoundCheck:
    """dim M(L) <= (n+m-2)(n-m-1)/2 + 1 for m = dim L^2 >= 1."""
    n, m = L.dim, L.derived_subalgebra().dim
    if m < 1:
        raise PreconditionNotMet("bound needs dim L^2 >= 1")
    lhs = dim_multiplier(L)
    rhs = (n + m - 2) * (n - m - 1) // 2 + 1
    return BoundCheck("derived-bound", lhs, rhs, lhs <= rhs, lhs == rhs)


def check_central_ideal_bound(L: LieAlgebra, K: Subspace) -> BoundCheck:
    """dim M(L) + dim(L^2 ^ K) <= dim M(L/K) + dim M(K) + dim((L/K)^ab x K).

    K must be a central ideal; being central it is abelian, so
    dim M(K) = C(dim K, 2).  With d = dim (L/K)^2 = dim(L^2 + K) - k, found
    once (`dim_quotient_derived`), dim M(L/K) = dim (L/K)^(L/K) - d (read
    off L's d2), dim (L/K)^ab = n - k - d and dim(L^2 ^ K) = dim L^2 - d,
    so neither L/K nor an intersection is built (`_central_ideal_check`).
    """
    if K.ambient is not L:
        raise NotCentralIdeal("K is not a subspace of L")
    if not L.center().contains_subspace(K):
        raise NotCentralIdeal("K is not central")
    return _central_ideal_check(
        "central-ideal-bound", L.dim, L.derived_subalgebra().dim, dim_multiplier(L), K.dim,
        dim_quotient_derived(L, K), dim_quotient_exterior_square(L, K))


def _central_ideal_check(check_id: str, n: int, m: int, dim_M: int, k: int,
                         quotient_derived: int, quotient_exterior: int) -> BoundCheck:
    """The central-ideal bound for a central ideal K of dim k in L, with
    n = dim L, m = dim L^2 and dim_M = dim M(L), from d = dim (L/K)^2 and
    dim (L/K)^(L/K): lhs dim M(L) + m - d, rhs dim (L/K)^(L/K) - d + C(k,2)
    + (n - k - d) k."""
    lhs = dim_M + m - quotient_derived
    rhs = (
        quotient_exterior - quotient_derived
        + k * (k - 1) // 2
        + (n - k - quotient_derived) * k
    )
    return BoundCheck(check_id, lhs, rhs, lhs <= rhs, lhs == rhs)


def _central_line_checks(L: LieAlgebra) -> list[BoundCheck]:
    """The central-ideal bound for K = <x_i> at each central basis vector
    x_i, with id central-ideal-bound[x_i], in one pass that reads L's facts
    once: it is `check_central_ideal_bound(L, <x_i>)` with no Subspace,
    ideal test or reduction per line.  dim (L/<x_i>)^2 is dim L^2 less
    [x_i in L^2] (`Subspace.unit_pivots`), and the exterior square is read
    off the d2 rows that i leads (`dim_coordinate_quotient_exterior_square`)."""
    n, m, dim_M = L.dim, L.derived_subalgebra().dim, dim_multiplier(L)
    in_derived = set(L.derived_subalgebra().unit_pivots())
    return [
        _central_ideal_check(
            f"central-ideal-bound[x{i + 1}]", n, m, dim_M, 1, m - (i in in_derived),
            dim_coordinate_quotient_exterior_square(L, (i,)))
        for i in central_basis_vectors(L)
    ]


def check_noncapable_bound(L: LieAlgebra) -> BoundCheck:
    """n - 3 < s(L) for non-capable L with dim L^2 >= 2."""
    if L.derived_subalgebra().dim < 2:
        raise PreconditionNotMet("needs dim L^2 >= 2")
    if is_capable(L):
        raise PreconditionNotMet("needs a non-capable algebra")
    n = L.dim
    s = s_invariant(L)
    return BoundCheck("non-capable-s-bound", n - 3, s, n - 3 < s, None)


@_memoized
def _dim_multiplier_mod_gamma3(L: LieAlgebra) -> int:
    """dim M(L/g3) = dim (L/g3)^(L/g3) - dim (L/g3)^2, read off L once per
    algebra for both checks that use it.  g3 lies in L^2, so
    dim (L/g3)^2 = dim (L^2 + g3) - dim g3 = dim L^2 - dim g3, with no
    reduction."""
    g3 = L.lower_central_series()[2]
    return dim_quotient_exterior_square(L, g3) - (L.derived_subalgebra().dim - g3.dim)


def gamma3_defect(L: LieAlgebra) -> BoundCheck:
    """defect >= n - m - c where

    defect = dim M(L/g3) - dim g3 + dim(L^ab x g3) - dim M(L),
    m = dim L^2, c = nilpotency class; needs class >= 3.
    """
    c = L.nilpotency_class
    if c < 3:
        raise PreconditionNotMet("needs nilpotency class >= 3")
    series = L.lower_central_series()
    g3 = series[2]
    defect = (
        _dim_multiplier_mod_gamma3(L)
        - g3.dim
        + L.abelianization_dim() * g3.dim
        - dim_multiplier(L)
    )
    bound = L.dim - series[1].dim - c
    return BoundCheck("gamma3-defect", defect, bound, defect >= bound, None)


def check_third_term_bound(L: LieAlgebra) -> BoundCheck:
    """dim L^3 + dim M(L) <= dim M(L/L^3) + dim(L/Z_2 x L^3); class >= 3."""
    if L.nilpotency_class < 3:
        raise PreconditionNotMet("needs nilpotency class >= 3")
    g3 = L.lower_central_series()[2]
    z2 = L.upper_central_series()[1]
    lhs = g3.dim + dim_multiplier(L)
    rhs = _dim_multiplier_mod_gamma3(L) + (L.dim - z2.dim) * g3.dim
    return BoundCheck("third-term-bound", lhs, rhs, lhs <= rhs, lhs == rhs)


def central_basis_vectors(L: LieAlgebra) -> list[int]:
    """Indices i with x_i central (each spans a 1-dim central ideal), read
    off the table: [x_i, x_j] = 0 for every j exactly when no stored
    bracket names i, as a stored bracket is nonzero.

    Checked against Z(L): they must be Z(L)'s `unit_pivots`, the pivots of
    its one-entry rows; raises LieError if they are not."""
    named = {i for pair in L.brackets for i in pair}
    central = [i for i in range(L.dim) if i not in named]
    if L.center().unit_pivots() != central:
        raise LieError("central basis vectors read off the table disagree with Z(L)")
    return central


def bound_checks(L: LieAlgebra) -> list[BoundCheck]:
    """Every bound check that applies to L, in report order: derived,
    gamma3, third-term, non-capable, then the central-ideal bound for
    K = <x_i> at each central basis vector x_i, with id
    central-ideal-bound[x_i], all lines in one pass
    (`_central_line_checks`).  The one place that decides applicability."""
    m = L.derived_subalgebra().dim
    checks: list[BoundCheck] = []
    if m >= 1:
        checks.append(check_derived_bound(L))
    if L.nilpotency_class >= 3:
        checks.append(gamma3_defect(L))
        checks.append(check_third_term_bound(L))
    if m >= 2 and not is_capable(L):
        checks.append(check_noncapable_bound(L))
    checks += _central_line_checks(L)
    return checks


# ---------------------------------------------------------------------------
# fingerprints and reports
# ---------------------------------------------------------------------------

Fingerprint = tuple


@_memoized
def fingerprint(L: LieAlgebra) -> Fingerprint:
    """(n, gamma dims, Z dims, dim M, dim(Z ^ L^2)), a fact in the one memo.

    Equal fingerprints are necessary, never sufficient, for isomorphism;
    collisions between distinct catalog names are reported by the
    verification harness, not resolved.
    """
    zl2 = L.center().intersect(L.derived_subalgebra()).dim
    return (
        L.dim,
        L.lower_central_dims(),
        L.upper_central_dims(),
        dim_multiplier(L),
        zl2,
    )


@dataclass
class InvariantReport:
    name: str
    n: int
    dim_derived: int
    nilpotency_class: int
    dim_M: int
    s: int | None
    t: int
    capable: bool
    gamma_dims: tuple[int, ...]
    z_dims: tuple[int, ...]
    dim_exterior: int
    dim_tensor: int
    bound_checks: list[BoundCheck] = field(default_factory=list)


def invariant_report(L: LieAlgebra) -> InvariantReport:
    """Everything the CLI prints for one algebra, under `L.name`."""
    checks = bound_checks(L)
    return InvariantReport(
        name=L.name or "(unnamed)",
        n=L.dim,
        dim_derived=L.derived_subalgebra().dim,
        nilpotency_class=L.nilpotency_class,
        dim_M=dim_multiplier(L),
        s=None if L.is_abelian else s_invariant(L),
        t=t_invariant(L),
        capable=is_capable(L),
        gamma_dims=L.lower_central_dims(),
        z_dims=L.upper_central_dims(),
        dim_exterior=dim_exterior_square(L),
        dim_tensor=dim_tensor_square(L),
        bound_checks=checks,
    )
