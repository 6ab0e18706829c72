"""Term-by-term references for `liemult.core.LieAlgebra` that only the tests use."""

from liemult.linalg import Q, Vector


def jacobi_defect(alg, i: int, j: int, k: int) -> Vector:
    """J(x_i, x_j, x_k) of one triple of `alg`, term by term: the reference
    the tests hold `LieAlgebra.check_jacobi` to."""
    out = [Q(0)] * alg.dim
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        for l, cl in alg.bracket_basis(a, b).items():
            for m, cm in alg.bracket_basis(l, c).items():
                out[m] += cl * cm
    return tuple(out)
