"""Sparse exact linear algebra over the scalar field.

Matrices are lists of sparse rows (dict column -> Scalar) and never contain
stored zeros.  Vectors are sparse dicts.  Every sum of sparse maps goes
through one primitive, :func:`add_scaled` (acc += c*v in place, deleting an
entry whose sum cancels), so an identity holds exactly when two maps are
equal as dicts.  Row convention: right-module actions multiply row vectors
on the right (v . M); left-module actions multiply column vectors (M . v).
:class:`SubspaceBasis` keeps a subspace U in fully reduced row echelon
form, which makes subspace equality literal equality of the pivot rows.
The same basis is the quotient V/U: the class of v has coordinates
``U.coset(v)``, the reduction of v read off on the free (non-pivot)
columns, and ``U.descend(image)`` is the map D an operator op induces on
V/U.  It takes op by its images, ``image(c)`` = op e_c, and reads D off the
free columns.  The same square certifies it on the pivot columns: op
carries U into U' exactly when U'.coset(op e_p) = D U.coset(e_p) for every
pivot column p.  A vector of U has coordinates ``U.coords(v)`` in the pivot
rows.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .scalars import Scalar, ScalarContext, parse_scalar


Vec = dict  # sparse vector: column index -> Scalar


def add_scaled(acc: dict, v: dict, c: Optional[Scalar] = None) -> dict:
    """acc += c*v (acc += v when c is None) in place, and return acc.

    The one accumulation rule of the package: a zero summand is skipped and
    an entry whose sum cancels is deleted, so acc never stores a zero.  The
    keys may be anything hashable.  acc must belong to the caller.
    """
    if c is not None and c.is_one():
        c = None
    for j, x in v.items():
        if c is not None:
            x = c * x
        if x.is_zero():
            continue
        s = acc.get(j)
        if s is None:
            acc[j] = x
        elif (s := s + x).is_zero():
            del acc[j]
        else:
            acc[j] = s
    return acc


def vec_add(a: Vec, b: Vec) -> Vec:
    return add_scaled(dict(a), b)


def json_int(x, what: str) -> int:
    """x when it is a JSON integer; ValueError naming ``what`` otherwise.

    Descriptor sizes, weights and matrix indices are read with this, so
    1.5, "2" or true are refused instead of coerced.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


class Matrix:
    """Sparse matrix over one scalar context."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: ScalarContext, nrows: int, ncols: int, rows=None):
        self.ctx = ctx
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[Vec] = rows if rows is not None else [dict() for _ in range(nrows)]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ctx, nrows, ncols) -> "Matrix":
        return Matrix(ctx, nrows, ncols)

    @staticmethod
    def identity(ctx, n) -> "Matrix":
        m = Matrix(ctx, n, n)
        one = ctx.one
        for i in range(n):
            m.rows[i][i] = one
        return m

    @staticmethod
    def diagonal(ctx, entries) -> "Matrix":
        entries = list(entries)
        m = Matrix(ctx, len(entries), len(entries))
        for i, c in enumerate(entries):
            if not c.is_zero():
                m.rows[i][i] = c
        return m

    def copy(self) -> "Matrix":
        return Matrix(self.ctx, self.nrows, self.ncols, [dict(r) for r in self.rows])

    # -- element access ------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i].get(j, self.ctx.zero)

    def set_entry(self, i: int, j: int, c: Scalar):
        if c.is_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = c

    def add_to_entry(self, i: int, j: int, c: Scalar):
        add_scaled(self.rows[i], {j: c})

    def diagonal_entries(self) -> Optional[list]:
        """The diagonal, zeros included, or None if any entry lies off it."""
        zero, out = self.ctx.zero, []
        for i, r in enumerate(self.rows):
            if len(r) > 1 or (r and i not in r):
                return None
            out.append(r.get(i, zero))
        return out

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(
            self.ctx, self.nrows, self.ncols,
            [vec_add(a, b) for a, b in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(
            self.ctx, self.nrows, self.ncols,
            [{j: -c for j, c in r.items()} for r in self.rows],
        )

    def scale(self, c: Scalar) -> "Matrix":
        if c.is_zero():
            return Matrix.zero(self.ctx, self.nrows, self.ncols)
        if c.is_one():
            return self.copy()
        if (-c).is_one():
            return -self
        return Matrix(
            self.ctx, self.nrows, self.ncols,
            [{j: c * v for j, v in r.items()} for r in self.rows],
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        assert self.ncols == other.nrows, "matrix shape mismatch"
        return Matrix(self.ctx, self.nrows, other.ncols,
                      [other.apply_row(r) for r in self.rows])

    def transpose(self) -> "Matrix":
        m = Matrix(self.ctx, self.ncols, self.nrows)
        for i, r in enumerate(self.rows):
            for j, c in r.items():
                m.rows[j][i] = c
        return m

    def kron(self, other: "Matrix") -> "Matrix":
        """Tensor product; row/col index = (self index) * (other dim) + (other index)."""
        m = Matrix(self.ctx, self.nrows * other.nrows, self.ncols * other.ncols)
        for i, r in enumerate(self.rows):
            for j, c in r.items():
                unit, base = c.is_one(), j * other.ncols
                for i2, r2 in enumerate(other.rows):
                    m.rows[i * other.nrows + i2].update(
                        {base + j2: c2 if unit else c * c2 for j2, c2 in r2.items()})
        return m

    # -- vector action -----------------------------------------------------------

    def apply_row(self, v: Vec) -> Vec:
        """v . M for a sparse row vector v."""
        out: Vec = {}
        for i, c in v.items():
            add_scaled(out, self.rows[i], c)
        return out

    def apply_col(self, v: Vec) -> Vec:
        """M . v for a sparse column vector v.

        Each dot product walks the shorter of the row and v; an exact sum
        does not depend on the order of its terms.
        """
        out: Vec = {}
        for i, r in enumerate(self.rows):
            short, long_ = (r, v) if len(r) <= len(v) else (v, r)
            acc = None
            for j, c in short.items():
                x = long_.get(j)
                if x is not None:
                    acc = c * x if acc is None else acc + c * x
            if acc is not None and not acc.is_zero():
                out[i] = acc
        return out

    # -- predicates -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- serialization ----------------------------------------------------------

    def to_triplets(self) -> list:
        return [[i, j, str(c)] for i, r in enumerate(self.rows) for j, c in sorted(r.items())]

    @staticmethod
    def from_triplets(ctx, nrows, ncols, triplets) -> "Matrix":
        m = Matrix(ctx, nrows, ncols)
        seen = set()
        for i, j, s in triplets:
            i, j = json_int(i, "a row index"), json_int(j, "a column index")
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
            if (i, j) in seen:
                raise ValueError(f"entry ({i}, {j}) is given twice")
            seen.add((i, j))
            if not isinstance(s, str):
                raise ValueError(f"entry ({i}, {j}) is {s!r}, not a scalar string")
            m.set_entry(i, j, parse_scalar(ctx, s))
        return m


def named_matrices(ctx, dim: int, data) -> dict:
    """{name: dim x dim Matrix} from a JSON object of triplet lists."""
    if dim < 1:
        raise ValueError(f"dimension {dim} is not positive")
    if not isinstance(data, dict):
        raise ValueError("generators must map names to triplet lists")
    return {name: Matrix.from_triplets(ctx, dim, dim, t) for name, t in data.items()}


class SubspaceBasis:
    """A subspace of row vectors kept in reduced row echelon form.

    The pivot rows are fully back-eliminated at all times, so two
    SubspaceBasis objects describe the same subspace iff their pivot maps
    are equal.  The quotient ambient/subspace has the classes of the free
    columns' unit vectors as its basis, in increasing column order.
    """

    __slots__ = ("ctx", "ambient", "pivots", "_free_pos")

    def __init__(self, ctx: ScalarContext, ambient: int):
        self.ctx = ctx
        self.ambient = ambient
        self.pivots: dict[int, Vec] = {}
        self._free_pos: Optional[dict] = None  # free column -> quotient index

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after elimination against the basis.

        Pivot rows carry zeros at every other pivot column, so eliminating
        each pivot entry of v once cannot reintroduce pivot entries.
        """
        piv = self.pivots
        out = dict(v)
        for j in [j for j in v if j in piv]:
            add_scaled(out, piv[j], -out[j])
        return out

    def add(self, v: Vec) -> bool:
        """Insert v; returns True if the dimension grew."""
        v = self.reduce(v)
        if not v:
            return False
        j = min(v)
        inv = v[j].inverse()
        v = {k: inv * c for k, c in v.items()}
        # back-eliminate the new pivot column from existing rows
        for p, row in self.pivots.items():
            c = row.get(j)
            if c is not None:
                self.pivots[p] = add_scaled(dict(row), v, -c)
        self.pivots[j] = v
        self._free_pos = None
        return True

    def add_all(self, vectors: Iterable[Vec]) -> None:
        for v in vectors:
            self.add(v)

    def rows(self) -> list:
        return [self.pivots[j] for j in sorted(self.pivots)]

    def pivot_columns(self) -> list:
        return sorted(self.pivots)

    def free_columns(self) -> list:
        piv = self.pivots
        return [j for j in range(self.ambient) if j not in piv]

    def _positions(self) -> dict:
        """Free column -> quotient index, cached until the next add."""
        if self._free_pos is None:
            self._free_pos = {c: k for k, c in enumerate(self.free_columns())}
        return self._free_pos

    def coset(self, v: Vec) -> Vec:
        """Quotient coordinates of the class of v in ambient/subspace."""
        pos = self._positions()
        return {pos[c]: x for c, x in self.reduce(v).items()}

    def coords(self, v: Vec) -> Optional[Vec]:
        """Coordinates of v in the rows (sorted by pivot), or None off the span.

        Every row is 1 at its own pivot and 0 at the others, so a vector in
        the span has its coordinates at the pivot columns.
        """
        if self.reduce(v):
            return None
        return {k: v[c] for k, c in enumerate(self.pivot_columns()) if c in v}

    def descend(self, image, target: Optional["SubspaceBasis"] = None,
                check: bool = False) -> Matrix:
        """The map D: ambient/self -> ambient'/target induced by op.

        op is read by its images: ``image(c)`` = op e_c in the target's
        ambient space, asked for once at each free column, with ``check``
        once at each pivot column too, and nowhere else.  D maps quotient
        coordinates to quotient coordinates.  The target defaults to self.
        A free column is its own class, so D is read off the free columns,
        where target.coset(op e_c) = D coset(e_c) holds by construction.
        With ``check``, raises ValueError unless that square also commutes
        on every pivot column p.  coset(e_p) is the class of e_p - u_p, u_p
        the pivot row, so the square on p says exactly that op u_p lies in
        the target subspace.  Without it, that is the caller's promise.
        """
        target = self if target is None else target
        out = Matrix(self.ctx, target.ambient - target.dim, self.ambient - self.dim)
        for k, c in enumerate(self.free_columns()):
            for r, x in target.coset(image(c)).items():
                out.rows[r][k] = x
        if check:
            one = self.ctx.one
            if any(target.coset(image(p)) != out.apply_col(self.coset({p: one}))
                   for p in self.pivots):
                raise ValueError("operator does not carry the subspace into its target")
        return out

    def to_matrix(self) -> Matrix:
        return Matrix(self.ctx, self.dim, self.ambient, [dict(r) for r in self.rows()])

    def __eq__(self, other):
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return self.ambient == other.ambient and self.pivots == other.pivots

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient})"


def diag_inverse(m: Matrix) -> Matrix:
    """Inverse of a diagonal matrix with nonzero diagonal."""
    return Matrix.diagonal(m.ctx, [m.entry(i, i).inverse() for i in range(m.nrows)])


def span(ctx, ambient: int, vectors: Iterable[Vec]) -> SubspaceBasis:
    b = SubspaceBasis(ctx, ambient)
    b.add_all(vectors)
    return b


def row_space(m: Matrix) -> SubspaceBasis:
    return span(m.ctx, m.ncols, (r for r in m.rows if r))


def rank(m: Matrix) -> int:
    return row_space(m).dim


def column_kernel(m: Matrix) -> list:
    """Basis (sparse column vectors) of {x : M x = 0}."""
    rs = row_space(m)
    piv = rs.pivots
    out = []
    for j in rs.free_columns():
        v: Vec = {j: m.ctx.one}
        for p, row in piv.items():
            c = row.get(j)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


def left_kernel(m: Matrix) -> list:
    """Basis of {w : w M = 0} as sparse row vectors."""
    return column_kernel(m.transpose())


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Intersection of two row-vector subspaces of the same ambient space."""
    assert a.ambient == b.ambient
    ra = a.rows()
    rb = b.rows()
    stacked = Matrix(a.ctx, len(ra) + len(rb), a.ambient, [dict(r) for r in ra + rb])
    out = SubspaceBasis(a.ctx, a.ambient)
    for w in left_kernel(stacked):
        v: Vec = {}
        for i, c in w.items():
            if i < len(ra):
                add_scaled(v, ra[i], c)
        out.add(v)
    return out
