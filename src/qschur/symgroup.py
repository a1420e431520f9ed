"""Permutation combinatorics of the symmetric group S_ell.

One-line notation, Coxeter length, descents, parabolic subgroups attached to
compositions, longest elements, and minimal-length coset representatives for
(S_l1 x S_l2) \\ S_{l1+l2}.  Everything here is plain combinatorics with
value semantics; generator indices follow the mathematical convention
(tau_i swaps i and i+1, with 1 <= i <= ell-1).
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterator


class Perm:
    """A permutation of {1, ..., ell} stored 0-based in one-line notation.

    Composition is functional: (w * v)(i) = w(v(i)).
    """

    __slots__ = ("images", "_length")

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {images}")
        self._length = None

    @staticmethod
    def identity(ell: int) -> "Perm":
        return Perm(range(ell))

    @staticmethod
    def transposition(ell: int, i: int) -> "Perm":
        """The simple transposition tau_i, 1 <= i <= ell-1."""
        if not 1 <= i <= ell - 1:
            raise ValueError(f"tau_{i} out of range for ell={ell}")
        im = list(range(ell))
        im[i - 1], im[i] = im[i], im[i - 1]
        return Perm(im)

    @property
    def ell(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of i under w, 1-based."""
        return self.images[i - 1] + 1

    def __mul__(self, other: "Perm") -> "Perm":
        if self.ell != other.ell:
            raise ValueError("permutations of different sizes")
        im = self.images
        return Perm(im[j] for j in other.images)

    def inverse(self) -> "Perm":
        out = [0] * self.ell
        for i, v in enumerate(self.images):
            out[v] = i
        return Perm(out)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def length(self) -> int:
        """Coxeter length = inversion count."""
        if self._length is None:
            im = self.images
            n = len(im)
            self._length = sum(
                1 for a in range(n) for b in range(a + 1, n) if im[a] > im[b]
            )
        return self._length

    def has_right_descent(self, i: int) -> bool:
        """True iff length(w * tau_i) < length(w)."""
        return self.images[i - 1] > self.images[i]

    def right_descents(self) -> list:
        return [i for i in range(1, self.ell) if self.has_right_descent(i)]

    def times_tau(self, i: int) -> "Perm":
        """w * tau_i: swaps the entries in positions i, i+1."""
        im = list(self.images)
        im[i - 1], im[i] = im[i], im[i - 1]
        return Perm(im)

    def reduced_word(self) -> list:
        """A reduced word [i_1, ..., i_k] with w = tau_{i_1} * ... * tau_{i_k}."""
        w = self
        stripped = []
        while True:
            ds = w.right_descents()
            if not ds:
                break
            i = ds[0]
            stripped.append(i)
            w = w.times_tau(i)
        stripped.reverse()
        return stripped

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        # stable ordering used for module bases: by length, then one-line
        return (self.length(), self.images) < (other.length(), other.images)

    def one_line(self) -> str:
        return " ".join(str(v + 1) for v in self.images)

    def __repr__(self):
        return f"Perm({self.one_line()})"


def all_perms(ell: int) -> list:
    """All of S_ell in the stable (length, one-line) order."""
    return sorted(Perm(p) for p in permutations(range(ell)))


def check_partition(parts) -> tuple:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"invalid composition {parts}: parts must be >= 1")
    return parts


def block_bounds(parts) -> list:
    """Half-open 0-based [start, stop) ranges of the blocks."""
    out = []
    start = 0
    for p in parts:
        out.append((start, start + p))
        start += p
    return out


def block_boundaries(parts) -> set:
    """The 1-based indices i for which tau_i straddles two blocks."""
    out = set()
    acc = 0
    for p in parts[:-1]:
        acc += p
        out.add(acc)
    return out


def elements_of_parabolic(parts) -> Iterator[Perm]:
    """All elements of S_{l1} x ... x S_{lp} inside S_ell (blockwise)."""
    parts = check_partition(parts)
    ell = sum(parts)
    bounds = block_bounds(parts)

    def rec(block: int, current: list):
        if block == len(bounds):
            yield Perm(current)
            return
        lo, hi = bounds[block]
        for p in permutations(range(lo, hi)):
            yield from rec(block + 1, current + list(p))

    yield from rec(0, [])


def parabolic_longest(parts) -> Perm:
    """The longest element w_pi: reverses each block."""
    parts = check_partition(parts)
    im: list[int] = []
    for lo, hi in block_bounds(parts):
        im.extend(range(hi - 1, lo - 1, -1))
    return Perm(im)


def min_coset_reps(l1: int, l2: int) -> list:
    """Minimal-length representatives of (S_l1 x S_l2) \\ S_{l1+l2}.

    d is minimal in its coset iff d^{-1} places the values 1..l1 and
    l1+1..l1+l2 in increasing position order; one representative per choice
    of positions for the first block.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError("block sizes must be >= 1")
    ell = l1 + l2
    reps = []
    for subset in combinations(range(ell), l1):
        inv = [0] * ell
        rest = [p for p in range(ell) if p not in subset]
        for val, pos in enumerate(subset):
            inv[val] = pos
        for val, pos in enumerate(rest, start=l1):
            inv[val] = pos
        reps.append(Perm(inv).inverse())
    reps.sort()
    return reps


def coset_factorize(w: Perm, l1: int, l2: int) -> tuple:
    """Factor w = p * d with p in S_l1 x S_l2 and d the minimal coset rep.

    Lengths are additive: length(w) = length(p) + length(d).
    """
    ell = w.ell
    if ell != l1 + l2:
        raise ValueError("size mismatch")
    pos1 = [p for p in range(ell) if w.images[p] < l1]
    pos2 = [p for p in range(ell) if w.images[p] >= l1]
    d_im = [0] * ell
    for k, p in enumerate(pos1):
        d_im[p] = k
    for k, p in enumerate(pos2, start=l1):
        d_im[p] = k
    d = Perm(d_im)
    p = w * d.inverse()
    return p, d


def split_parabolic(p: Perm, l1: int, l2: int) -> tuple:
    """Split an element of S_l1 x S_l2 into its two block permutations."""
    im = p.images
    left = im[:l1]
    right = [v - l1 for v in im[l1:]]
    if sorted(left) != list(range(l1)) or sorted(right) != list(range(l2)):
        raise ValueError(f"{p!r} does not preserve the blocks ({l1},{l2})")
    return Perm(left), Perm(right)
