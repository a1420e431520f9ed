"""Independent re-checks of returned witnesses, run outside the timed window.

An intertwiner T is accepted only if T rho_A(g) = rho_B(g) T holds exactly
for every generator g of the algebra and T is invertible.  Invertibility is
shown by a nonzero determinant at a rational point where no entry has a pole
(det T(t0) != 0 implies det T != 0 in Q(t)), using a Fraction elimination of
this file's own; only if every point fails does it fall back to the
library's exact rank.  Reducible verdicts are re-checked with the library's
``verify_submodule_certificate``, which re-spins the certificate vector.
"""

from __future__ import annotations

from fractions import Fraction

_POINTS = (Fraction(13, 7), Fraction(-5, 3), Fraction(17, 11))


def _fraction_rank(rows: list) -> int:
    """Rank over Q; pivot rows are kept reduced at every other pivot column."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        for j, prow in pivots.items():
            c = row.get(j)
            if c:
                for k, v in prow.items():
                    nv = row.get(k, 0) - c * v
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
        row = {k: v for k, v in row.items() if v}
        if row:
            j = min(row)
            inv = 1 / row[j]
            prow = {k: v * inv for k, v in row.items()}
            for p, other in pivots.items():
                c = other.get(j)
                if c:
                    for k, v in prow.items():
                        nv = other.get(k, 0) - c * v
                        if nv:
                            other[k] = nv
                        else:
                            other.pop(k, None)
            pivots[j] = prow
    return len(pivots)


def invertible(lib, T) -> bool:
    if T.nrows != T.ncols:
        return False
    for t0 in _POINTS:
        try:
            rows = [{j: c.specialize(t0) for j, c in row.items()} for row in T.rows]
        except ZeroDivisionError:
            continue
        if _fraction_rank(rows) == T.nrows:
            return True
    return lib.linalg.rank(T) == T.nrows


def intertwiner_holds(lib, A, B, T) -> bool:
    """T carries A to B: T rho_A(g) = rho_B(g) T for every algebra generator.

    The gl torus operators t_r are bookkeeping, not algebra generators, so
    they are not required to commute with T.
    """
    ga, gb = A.generators(), B.generators()
    keys = [k for k in ga if not k.startswith("t")]
    if sorted(keys) != sorted(k for k in gb if not k.startswith("t")):
        return False
    return all(T * ga[k] == gb[k] * T for k in keys) and invertible(lib, T)


def recheck(lib, outcome) -> bool:
    """Every witness attached to an outcome passes its independent check."""
    for A, B, T in outcome.intertwiners:
        if not intertwiner_holds(lib, A, B, T):
            return False
    for mod, cert in outcome.certificates:
        if not lib.module_tools.verify_submodule_certificate(mod, cert):
            return False
    return True
