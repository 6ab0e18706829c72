"""Catalog of the named small-dimensional nilpotent Lie algebras.

Each entry records a presentation in a compact bracket notation
("[1,2]=3 [2,4]=eps*6 [3,4]=-2*7"), its source table, parameter domain,
and the expected (dim M, s) values recorded in the reference tables
(7-10) where the classification states them; TABLE_ORDER says which
entries are the rows of which table.  Presentations are entered
verbatim from the source; rows that are printed self-inconsistently
(duplicated lines, Jacobi-violating coefficients) carry
provenance="repaired" and use the form from the cited classification
sources instead.  Composite names used by the classification theorems
(direct sums, one central product) are registered as recipes.

Name grammar accepted by get():

    atom   := A(k) | H(m) | <entry name> [ "(" rational ")" ]
    name   := atom { ("⊕" | "+") atom | ("∔" | ".+") atom }

"L_{6,22}" may be spelled "L6_22"; parameters may be inline
("L_{6,22}(1)") or passed as eps=/lam= keywords.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    LieAlgebra,
    LieError,
    ParamOutOfDomain,
    _cached,
    central_product as _central_product,
    check_dim,
    direct_sum as _direct_sum,
    format_rational,
    rational_expr,
)
from .linalg import Q, qf

DSUM = "⊕"   # direct sum
CPROD = "∔"  # central product


class UnknownName(LieError):
    pass


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ParamOutOfDomain("A(n) needs n >= 0")
    check_dim(n)
    return LieAlgebra(n, {}, name=f"A({n})")


def heisenberg(m: int) -> LieAlgebra:
    """H(m): dim 2m+1, brackets [x_{2i-1}, x_{2i}] = x_{2m+1}."""
    if m < 1:
        raise ParamOutOfDomain("H(m) needs m >= 1")
    check_dim(2 * m + 1)  # before the m brackets are built
    z = 2 * m
    brackets = {(2 * i, 2 * i + 1): {z: 1} for i in range(m)}
    return LieAlgebra(2 * m + 1, brackets, name=f"H({m})")


# ---------------------------------------------------------------------------
# parameter domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str                  # "eps" or "lam"
    domain: str                # "any" | "nonzero" | "not01"
    default: Fraction
    samples: tuple[Fraction, ...]  # catalog default sample set

    def contains(self, value: Fraction) -> bool:
        if self.domain == "nonzero":
            return value != 0
        if self.domain == "not01":
            return value not in (0, 1)
        return True

    def label(self) -> str:
        return {"any": "any rational", "nonzero": "nonzero", "not01": "excluding 0 and 1"}[self.domain]


EPS_STAR = ParamSpec("eps", "nonzero", Q(1), (Q(1),))
EPS_ANY = ParamSpec("eps", "any", Q(1), (Q(0), Q(1)))
LAM_NOT01 = ParamSpec("lam", "not01", Q(3), (Q(-1), Q(2)))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    source: str                    # table1..table6 | extra | composite | witness
    brackets: str | None = None    # compact bracket notation
    recipe: str | None = None      # composite name expression
    param: ParamSpec | None = None
    expected_dim_M: int | None = None
    expected_s: int | None = None
    provenance: str = "verbatim"
    known_discrepancy: bool = False
    note: str = ""

    def build(self, value: Fraction | None = None) -> LieAlgebra:
        """The algebra at `value` (default when None): one shared instance per
        (entry, value) until `clear_caches()`; `get` relabels it on its rows."""
        if self.param is not None:
            if value is None:
                value = self.param.default
            if not self.param.contains(value):
                raise ParamOutOfDomain(
                    f"{self.name}: parameter {self.param.name} = {format_rational(value)} "
                    f"outside domain ({self.param.label()})"
                )
        elif value is not None:
            raise ParamOutOfDomain(f"{self.name} takes no parameter")
        key = (self.name, self.brackets, self.recipe, value)  # strings keep their hash
        return _cached((CatalogEntry.build, key), self._construct, value)

    def _construct(self, value: Fraction | None) -> LieAlgebra:
        params = {self.param.name: value} if self.param is not None else {}
        label = param_label(self.name, value) if self.param is not None else self.name
        if self.recipe is not None:
            alg = _build_expression(self.recipe, params, set())
            return LieAlgebra.from_stored(alg.dim, alg.brackets, name=label)
        table = _parse_bracket_spec(self.brackets, self.dim, params)
        return LieAlgebra(self.dim, table, name=label)

    def sample_values(self) -> tuple[Fraction | None, ...]:
        if self.param is None:
            return (None,)
        return self.param.samples


def param_label(base: str, value: Fraction) -> str:
    val = format_rational(value)
    if "(eps)" in base or "(lam)" in base:
        return base.replace("(eps)", f"({val})").replace("(lam)", f"({val})")
    return f"{base}({val})"


_BRACKET_RE = re.compile(r"^\[(\d+),(\d+)\]=(.+)$")


def _parse_bracket_spec(spec: str, dim: int, params: dict[str, Fraction]):
    table: dict[tuple[int, int], dict[int, Fraction | int]] = {}
    for token in spec.split():
        m = _BRACKET_RE.match(token)
        if not m:
            raise LieError(f"bad bracket token {token!r}")
        i, j, rhs = int(m.group(1)), int(m.group(2)), m.group(3)
        # only a written coefficient is parsed; an implicit one is the int +-1
        if "*" in rhs:
            coeff_text, target = rhs.rsplit("*", 1)
            coeff = rational_expr(coeff_text, params)
        elif rhs.startswith("-"):
            coeff, target = -1, rhs[1:]
        else:
            coeff, target = 1, rhs
        k = int(target)
        if not (1 <= i < j <= dim and 1 <= k <= dim):
            raise LieError(f"indices out of range in {token!r}")
        if (i - 1, j - 1) in table:
            raise LieError(f"duplicate bracket pair in spec: {token!r}")
        if coeff:
            table[(i - 1, j - 1)] = {k - 1: coeff}
    return table


# ---------------------------------------------------------------------------
# the entries, in table order
# ---------------------------------------------------------------------------

_E = CatalogEntry
_ENTRIES: list[CatalogEntry] = [
    # ---- table 1: dim <= 6, dim L^2 = 2 -----------------------------------
    _E("L_{4,3}", 4, "table1", "[1,2]=3 [1,3]=4"),
    _E("L_{5,3}", 5, "table1", "[1,2]=3 [1,3]=4",
       note="printed under its own name; same brackets as L_{4,3} plus a spectator"),
    _E("L_{5,5}", 5, "table1", "[1,2]=3 [1,3]=5 [2,4]=5"),
    _E("L_{5,8}", 5, "table1", "[1,2]=4 [1,3]=5"),
    _E("L_{6,3}", 6, "table1", "[1,2]=3 [1,3]=4",
       note="printed under its own name; same brackets as L_{4,3} plus spectators"),
    _E("L_{6,5}", 6, "table1", "[1,2]=3 [1,3]=5 [2,4]=5"),
    _E("L_{6,8}", 6, "table1", "[1,2]=4 [1,3]=5"),
    _E("L_{6,10}", 6, "table1", "[1,2]=3 [1,3]=6 [4,5]=6",
       expected_dim_M=6, expected_s=5),
    _E("L_{6,22}(eps)", 6, "table1", "[1,2]=5 [1,3]=6 [2,4]=eps*6 [3,4]=5", param=EPS_ANY),
    # ---- table 2: dim 7, dim L^2 = 2 ---------------------------------------
    _E("L_{6,3}" + DSUM + "A(1)", 7, "table2", "[1,2]=3 [1,3]=4"),
    _E("L_{6,5}" + DSUM + "A(1)", 7, "table2", "[1,2]=3 [1,3]=5 [2,4]=5"),
    _E("L_{6,8}" + DSUM + "A(1)", 7, "table2", "[1,2]=4 [1,3]=5"),
    _E("L_{6,22}(eps)" + DSUM + "A(1)", 7, "table2", "[1,2]=5 [1,3]=6 [2,4]=eps*6 [3,4]=5",
       param=EPS_ANY),
    _E("L_{6,10}" + DSUM + "A(1)", 7, "table2", "[1,2]=3 [1,3]=6 [4,5]=6",
       expected_dim_M=10, expected_s=6),
    _E("27A", 7, "table2", "[1,2]=6 [1,4]=7 [3,5]=7",
       expected_dim_M=10, expected_s=6),
    _E("27B", 7, "table2", "[1,2]=6 [3,4]=6 [1,5]=7 [2,3]=7"),
    _E("157", 7, "table2", "[1,2]=3 [1,3]=7 [2,4]=7 [5,6]=7",
       expected_dim_M=10, expected_s=6),
    # ---- table 3: dim <= 6, dim L^2 = 3 ------------------------------------
    _E("L_{5,6}", 5, "table3", "[1,2]=3 [1,3]=4 [1,4]=5 [2,3]=5",
       expected_dim_M=3, expected_s=4),
    _E("L_{5,7}", 5, "table3", "[1,2]=3 [1,3]=4 [1,4]=5",
       expected_dim_M=3, expected_s=4),
    _E("L_{5,9}", 5, "table3", "[1,2]=3 [1,3]=4 [2,3]=5",
       expected_dim_M=3, expected_s=4),
    _E("L_{6,6}", 6, "table3", "[1,2]=3 [1,3]=4 [1,4]=5 [2,3]=5",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,7}", 6, "table3", "[1,2]=3 [1,3]=4 [1,4]=5",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,9}", 6, "table3", "[1,2]=3 [1,3]=4 [2,3]=5",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,11}", 6, "table3", "[1,2]=3 [1,3]=4 [1,4]=6 [2,3]=6 [2,5]=6",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,12}", 6, "table3", "[1,2]=3 [1,3]=4 [1,4]=6 [2,5]=6",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,13}", 6, "table3", "[1,2]=3 [1,3]=5 [2,4]=5 [1,5]=6 [3,4]=6",
       expected_dim_M=4, expected_s=7),
    _E("L_{6,19}(eps)", 6, "table3", "[1,2]=4 [1,3]=5 [1,5]=6 [2,4]=6 [3,5]=eps*6",
       param=EPS_STAR, expected_dim_M=5, expected_s=6),
    _E("L_{6,20}", 6, "table3", "[1,2]=4 [1,3]=5 [1,5]=6 [2,4]=6",
       expected_dim_M=5, expected_s=6),
    _E("L_{6,23}", 6, "table3", "[1,2]=3 [1,3]=5 [2,4]=5 [1,4]=6",
       expected_dim_M=6, expected_s=5),
    _E("L_{6,24}(eps)", 6, "table3", "[1,2]=3 [1,3]=5 [2,4]=5 [1,4]=eps*6 [2,3]=6",
       param=EPS_ANY, expected_dim_M=5, expected_s=6),
    _E("L_{6,25}", 6, "table3", "[1,2]=3 [1,3]=5 [1,4]=6",
       expected_dim_M=6, expected_s=5),
    _E("L_{6,26}", 6, "table3", "[1,2]=4 [1,3]=5 [2,3]=6",
       expected_dim_M=8, expected_s=3),
    # ---- table 4: dim 7, dim L^2 = 3, indecomposable -----------------------
    _E("37A", 7, "table4", "[1,2]=5 [2,3]=6 [2,4]=7",
       expected_dim_M=12, expected_s=4),
    _E("37B", 7, "table4", "[1,2]=5 [2,3]=6 [3,4]=7",
       expected_dim_M=11, expected_s=5),
    _E("37C", 7, "table4", "[1,2]=5 [3,4]=5 [2,3]=6 [2,4]=7",
       expected_dim_M=11, expected_s=5),
    _E("37D", 7, "table4", "[1,2]=5 [3,4]=5 [1,3]=6 [2,4]=7",
       expected_dim_M=11, expected_s=5),
    _E("257A", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [1,5]=7",
       expected_dim_M=9, expected_s=7),
    _E("257B", 7, "table4", "[1,2]=3 [1,3]=6 [1,4]=7 [2,5]=7",
       expected_dim_M=8, expected_s=8),
    _E("257C", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [2,5]=7",
       expected_dim_M=9, expected_s=7),
    _E("257D", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [1,4]=7 [2,5]=7",
       expected_dim_M=8, expected_s=8),
    _E("257E", 7, "table4", "[1,2]=3 [1,3]=6 [4,5]=6 [2,4]=7",
       expected_dim_M=8, expected_s=8),
    _E("257F", 7, "table4", "[1,2]=3 [2,3]=6 [4,5]=6 [2,4]=7",
       expected_dim_M=9, expected_s=7),
    _E("257G", 7, "table4", "[1,2]=3 [1,3]=6 [4,5]=6 [1,5]=7 [2,4]=7",
       expected_dim_M=8, expected_s=8),
    _E("257H", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [4,5]=7",
       expected_dim_M=8, expected_s=8),
    _E("257I", 7, "table4", "[1,2]=3 [1,3]=6 [1,4]=6 [1,5]=7 [2,3]=7",
       expected_dim_M=8, expected_s=8),
    _E("257J", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [1,5]=7 [2,3]=7",
       expected_dim_M=8, expected_s=8),
    _E("257K", 7, "table4", "[1,2]=3 [1,3]=6 [2,5]=7 [4,5]=7",
       expected_dim_M=8, expected_s=8, provenance="repaired",
       note="printed row has [x2,x3]=x7, which contradicts the recorded values "
            "(computed (6, 10)); [x2,x5]=x7 restores them for both 257K and 257L"),
    _E("257L", 7, "table4", "[1,2]=3 [1,3]=6 [2,4]=6 [2,5]=7 [4,5]=7",
       expected_dim_M=8, expected_s=8, provenance="repaired",
       note="printed row has [x2,x3]=x7, which contradicts the recorded values "
            "(computed (6, 10)); [x2,x5]=x7 restores them for both 257K and 257L"),
    _E("147A", 7, "table4", "[1,2]=4 [1,3]=5 [1,6]=7 [2,5]=7 [3,4]=7",
       expected_dim_M=8, expected_s=8),
    _E("147B", 7, "table4", "[1,2]=4 [1,3]=5 [1,4]=7 [2,6]=7 [3,5]=7",
       expected_dim_M=8, expected_s=8),
    _E("1457A", 7, "table4", "[1,2]=3 [1,3]=4 [1,4]=7 [5,6]=7",
       expected_dim_M=6, expected_s=10),
    _E("1457B", 7, "table4", "[1,2]=3 [1,3]=4 [1,4]=7 [2,3]=7 [5,6]=7",
       expected_dim_M=6, expected_s=10),
    _E("137A", 7, "table4", "[1,2]=5 [1,5]=7 [3,6]=7 [3,4]=6",
       expected_dim_M=7, expected_s=9),
    _E("137B", 7, "table4", "[1,2]=5 [3,4]=6 [1,5]=7 [2,4]=7 [3,6]=7",
       expected_dim_M=7, expected_s=9),
    _E("137C", 7, "table4", "[1,2]=5 [1,4]=6 [2,3]=6 [1,6]=7 [3,5]=-7",
       expected_dim_M=7, expected_s=9),
    _E("137D", 7, "table4", "[1,2]=5 [1,4]=6 [2,3]=6 [1,6]=7 [2,4]=7 [3,5]=-7",
       expected_dim_M=7, expected_s=9),
    _E("1357A", 7, "table4", "[1,2]=4 [1,4]=5 [2,3]=5 [1,5]=7 [2,6]=7 [3,4]=-7",
       expected_dim_M=7, expected_s=9),
    _E("1357B", 7, "table4", "[1,2]=4 [1,4]=5 [2,3]=5 [1,5]=7 [3,6]=7 [3,4]=-7",
       expected_dim_M=6, expected_s=10),
    _E("1357C", 7, "table4", "[1,2]=4 [1,4]=5 [2,3]=5 [1,5]=7 [2,4]=7 [3,6]=7 [3,4]=-7",
       expected_dim_M=6, expected_s=10, provenance="repaired",
       note="printed row never involves x6 (decomposable, center dim 2, wrong "
            "series type); restoring the [x3,x6]=x7 term of the 1357B pattern "
            "yields the recorded values and the (1,3,5,7) type"),
    # ---- table 5: dim 7, dim L^2 = 3, decomposable (recipes) ---------------
    _E("L_{4,3}" + DSUM + "H(1)", 7, "table5", recipe="L_{4,3}" + DSUM + "H(1)",
       expected_dim_M=8, expected_s=8),
    _E("L_{5,6}" + DSUM + "A(2)", 7, "table5", recipe="L_{5,6}" + DSUM + "A(2)",
       expected_dim_M=8, expected_s=8),
    _E("L_{5,7}" + DSUM + "A(2)", 7, "table5", recipe="L_{5,7}" + DSUM + "A(2)",
       expected_dim_M=8, expected_s=8),
    _E("L_{5,9}" + DSUM + "A(2)", 7, "table5", recipe="L_{5,9}" + DSUM + "A(2)",
       expected_dim_M=8, expected_s=8),
    _E("L_{6,11}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,11}" + DSUM + "A(1)",
       expected_dim_M=8, expected_s=8),
    _E("L_{6,12}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,12}" + DSUM + "A(1)",
       expected_dim_M=8, expected_s=8),
    _E("L_{6,13}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,13}" + DSUM + "A(1)",
       expected_dim_M=7, expected_s=9),
    _E("L_{6,19}(eps)" + DSUM + "A(1)", 7, "table5", recipe="L_{6,19}(eps)" + DSUM + "A(1)",
       param=EPS_STAR, expected_dim_M=8, expected_s=8),
    _E("L_{6,20}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,20}" + DSUM + "A(1)",
       expected_dim_M=8, expected_s=8),
    _E("L_{6,23}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,23}" + DSUM + "A(1)",
       expected_dim_M=9, expected_s=7),
    _E("L_{6,24}(eps)" + DSUM + "A(1)", 7, "table5", recipe="L_{6,24}(eps)" + DSUM + "A(1)",
       param=EPS_ANY, expected_dim_M=8, expected_s=8),
    _E("L_{6,25}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,25}" + DSUM + "A(1)",
       expected_dim_M=9, expected_s=7),
    _E("L_{6,26}" + DSUM + "A(1)", 7, "table5", recipe="L_{6,26}" + DSUM + "A(1)",
       expected_dim_M=11, expected_s=5),
    # ---- table 6: dim 6, dim L^2 = 4 ----------------------------------------
    _E("L_{6,14}", 6, "table6", "[1,2]=3 [1,3]=4 [1,4]=5 [2,3]=5 [2,5]=6 [3,4]=-6",
       expected_dim_M=2, expected_s=9),
    _E("L_{6,15}", 6, "table6", "[1,2]=3 [1,3]=4 [1,4]=5 [2,3]=5 [1,5]=6 [2,4]=6",
       expected_dim_M=3, expected_s=8, provenance="repaired",
       note="printed row duplicates L_{6,16}; classification-source form used"),
    _E("L_{6,16}", 6, "table6", "[1,2]=3 [1,3]=4 [1,4]=5 [2,5]=6 [3,4]=-6",
       expected_dim_M=2, expected_s=9),
    _E("L_{6,17}", 6, "table6", "[1,2]=3 [1,3]=4 [1,4]=5 [1,5]=6 [2,3]=6",
       expected_dim_M=3, expected_s=8, provenance="repaired",
       note="printed row repeats the line [x1,x3]=x4; duplicate dropped"),
    _E("L_{6,18}", 6, "table6", "[1,2]=3 [1,3]=4 [1,4]=5 [1,5]=6",
       expected_dim_M=3, expected_s=8),
    _E("L_{6,21}(eps)", 6, "table6", "[1,2]=3 [1,3]=4 [2,3]=5 [1,4]=6 [2,5]=eps*6",
       param=EPS_STAR, expected_dim_M=4, expected_s=7,
       provenance="repaired", note="printed row repeats the line [x1,x3]=x4; duplicate dropped"),
    # ---- extras -------------------------------------------------------------
    _E("S1", 8, "extra", "[1,2]=6 [1,4]=8 [3,5]=8 [2,7]=8",
       expected_dim_M=15, expected_s=7, note="stem witness in the s=7 classification"),
    _E("357A", 7, "extra", "[1,2]=3 [1,3]=5 [1,4]=7 [2,4]=6",
       expected_dim_M=8, note="recorded s-value inconsistent with the definition; s recomputed"),
    _E("247N", 7, "extra", "[1,2]=4 [1,3]=5 [1,5]=6 [2,3]=7 [2,4]=6",
       expected_dim_M=7, note="recorded s-value inconsistent with the definition; s recomputed"),
    _E("147D", 7, "extra", "[1,2]=4 [1,3]=-6 [1,5]=7 [1,6]=7 [2,3]=5 [2,6]=7 [3,4]=-2*7",
       expected_dim_M=7, note="recorded s-value inconsistent with the definition; s recomputed"),
    _E("147E(lam)", 7, "extra", "[1,2]=4 [1,3]=-6 [1,5]=-7 [2,3]=5 [2,6]=lam*7 [3,4]=(1-lam)*7",
       param=LAM_NOT01, expected_dim_M=7, known_discrepancy=True,
       note="dim M = 7 holds for generic lam but equals 8 on the eigenvalue-coincidence "
            "orbit lam in {2, -1, 1/2}; see the verification report notes"),
    _E("147F", 7, "extra", "[1,2]=4 [1,3]=-6 [1,5]=7 [1,6]=7 [2,3]=5 [2,4]=7 [2,6]=7 [3,4]=-2*7",
       expected_dim_M=7, provenance="repaired",
       note="printed row violates Jacobi on (x1,x2,x3); [x3,x4]=-2x7 restores the "
            "147D/147E coefficient pattern and reproduces the recorded multiplier"),
    # ---- composite recipes used by the classification theorems -------------
    _E("L_{6,10}" + CPROD + "H(1)", 8, "composite", recipe="L_{6,10}" + CPROD + "H(1)",
       expected_dim_M=15, expected_s=7),
    _E("H(1)" + DSUM + "H(2)", 8, "composite", recipe="H(1)" + DSUM + "H(2)",
       expected_dim_M=15, expected_s=7),
]

# The rows of reference tables 7-10, in the order the tables print them.
TABLE_ORDER: dict[int, list[str]] = {
    7: [
        "L_{5,6}", "L_{5,7}", "L_{5,9}",
        "L_{6,6}", "L_{6,7}", "L_{6,9}", "L_{6,11}", "L_{6,12}",
        "L_{6,19}(eps)", "L_{6,20}", "L_{6,24}(eps)",
        "L_{6,13}",
        "L_{6,23}", "L_{6,25}",
        "L_{6,26}",
    ],
    8: [
        "37A",
        "37B", "37C", "37D",
        "257A", "257C", "257F",
        "257B", "257D", "257E", "257G", "257H", "257I", "257J",
        "147A", "147B", "L_{4,3}" + DSUM + "H(1)",
        "L_{5,6}" + DSUM + "A(2)", "L_{5,7}" + DSUM + "A(2)", "L_{5,9}" + DSUM + "A(2)",
        "L_{6,11}" + DSUM + "A(1)", "L_{6,12}" + DSUM + "A(1)",
        "L_{6,19}(eps)" + DSUM + "A(1)", "L_{6,20}" + DSUM + "A(1)",
        "L_{6,24}(eps)" + DSUM + "A(1)", "257K", "257L",
        "1457A", "1457B", "1357B", "1357C",
        "137A", "137B", "137C", "137D", "1357A", "L_{6,13}" + DSUM + "A(1)",
        "L_{6,23}" + DSUM + "A(1)", "L_{6,25}" + DSUM + "A(1)",
        "L_{6,26}" + DSUM + "A(1)",
    ],
    9: [
        "L_{6,14}", "L_{6,16}",
        "L_{6,15}", "L_{6,17}", "L_{6,18}",
        "L_{6,21}(eps)",
    ],
    10: [
        "L_{6,10}",
        "27A", "L_{6,10}" + DSUM + "A(1)", "157",
    ],
}

_INDEX: dict[str, CatalogEntry] = {}


def _family_stem(name: str) -> str:
    return re.sub(r"\((eps|lam)\)", "", name)


def _register() -> None:
    for entry in _ENTRIES:
        for key in {entry.name, _family_stem(entry.name)}:
            norm = _canonical(key)
            if norm in _INDEX:
                raise LieError(f"duplicate catalog name {key!r}")
            _INDEX[norm] = entry


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

_LNK_RE = re.compile(r"L(\d+)_(\d+)")


def _canonical(name: str) -> str:
    s = "".join(name.split())
    s = s.replace(".+", CPROD).replace("+", DSUM)
    s = _LNK_RE.sub(lambda m: "L_{%s,%s}" % (m.group(1), m.group(2)), s)
    return s


def _split_top(s: str) -> tuple[list[str], list[str]]:
    """Split on top-level sum/product signs; returns (atoms, ops)."""
    atoms, ops = [], []
    depth = 0
    cur = []
    for ch in s:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if depth == 0 and ch in (DSUM, CPROD):
            atoms.append("".join(cur))
            ops.append("sum" if ch == DSUM else "central")
            cur = []
        else:
            cur.append(ch)
    atoms.append("".join(cur))
    if any(not a for a in atoms):
        raise UnknownName(f"malformed name {s!r}")
    return atoms, ops


_ATOM_RE = re.compile(r"^(?P<base>.+?)\((?P<arg>-?\d+(/\d+)?)\)$")


def _build_atom(atom: str, params: dict[str, Fraction], used: set[str]) -> LieAlgebra:
    """An entry by name, at its value in `params` (the parameter's name is
    added to `used`), or one at an inline value, or A(n) or H(m)."""
    entry = _INDEX.get(_canonical(atom))
    value = None
    if entry is None:
        m = _ATOM_RE.match(atom)
        if m is None:
            raise UnknownName(f"no catalog entry named {atom!r}")
        base, arg = m.group("base"), m.group("arg")
        # the package's parser: no ZeroDivisionError, and no int/str digit limit
        value = rational_expr(arg)
        if base in ("A", "H") and "/" not in arg:
            return (abelian if base == "A" else heisenberg)(value.numerator)
        entry = _INDEX.get(_canonical(base))
        if entry is None:
            raise UnknownName(f"no catalog entry named {base!r}")
    elif entry.param is not None:
        value = params.get(entry.param.name)
        used.add(entry.param.name)
    return entry.build(value)


def _central_glue(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """A .+ B identifying the canonical Z ^ L^2 lines of the two factors."""
    wa = a.center().intersect(a.derived_subalgebra())
    wb = b.center().intersect(b.derived_subalgebra())
    if wa.dim < 1 or wb.dim < 1:
        raise LieError("central product recipe needs Z ^ L^2 nonzero in both factors")
    return _central_product(a, b, [(wa.basis.data[0], wb.basis.data[0])])


def _build_expression(name: str, params: dict[str, Fraction], used: set[str]) -> LieAlgebra:
    """Build a name expression left to right, each atom by `_build_atom`.
    Each step is capped like a declared dimension: both kinds of step build
    the direct sum of the two factors (a central product then glues it), so
    its dimension is checked before it is built."""
    atoms, ops = _split_top(_canonical(name))
    result = _build_atom(atoms[0], params, used)
    for op, atom in zip(ops, atoms[1:]):
        nxt = _build_atom(atom, params, used)
        check_dim(result.dim + nxt.dim)
        result = _direct_sum(result, nxt) if op == "sum" else _central_glue(result, nxt)
    return result


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def get(name: str, eps=None, lam=None) -> LieAlgebra:
    """Build a catalog algebra (or a sum/product expression over them).
    eps and lam are coerced through `qf`: a float is refused, not read as
    its binary fraction.  A parameter that no atom of the name reads (the
    name has no such parameter, or gives its value inline) is refused:
    ParamOutOfDomain.  The name is the built algebra's: each atom labelled
    with its own parameter value, joined by the sum or product."""
    params: dict[str, Fraction] = {}
    if eps is not None:
        params["eps"] = qf(eps)
    if lam is not None:
        params["lam"] = qf(lam)
    norm = _canonical(name)
    m = _ATOM_RE.match(norm)
    used: set[str] = set()
    if norm in _INDEX or (m and _canonical(m.group("base")) in _INDEX):
        alg = _build_atom(norm, params, used)
    elif any(op in norm for op in (DSUM, CPROD)) or m or norm in ("A", "H"):
        alg = _build_expression(norm, params, used)
    else:
        raise UnknownName(f"no catalog entry named {name!r}")
    for pname in params:
        if pname not in used:
            raise ParamOutOfDomain(f"{norm} takes no parameter {pname!r}")
    return LieAlgebra.from_stored(alg.dim, alg.brackets, name=alg.name)


def entries() -> list[CatalogEntry]:
    return list(_ENTRIES)


def all_entries(dim: int | None = None, source: str | None = None,
                table: int | None = None) -> list[CatalogEntry]:
    """Filtered catalog listing in catalog order; `table` keeps the rows of
    that reference table (TABLE_ORDER)."""
    out = []
    for entry in _ENTRIES:
        if dim is not None and entry.dim != dim:
            continue
        if source is not None and entry.source != source:
            continue
        if table is not None and entry.name not in TABLE_ORDER.get(table, ()):
            continue
        out.append(entry)
    return out


def lookup(name: str) -> CatalogEntry:
    entry = _INDEX.get(_canonical(name))
    if entry is None:
        raise UnknownName(f"no catalog entry named {name!r}")
    return entry


_register()
