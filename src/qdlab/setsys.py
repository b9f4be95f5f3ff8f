"""Set systems on [N]: canonical generators, colorings, and the embedding
into diagonal projection systems.

Ground-set indices are 1-based everywhere, including serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, ValidationError
from .matcore import OrthogonalProjection, as_projection, matrix_from_json

# Largest ground set or dimension accepted from JSON. Projection systems are
# dense N x N arrays, so a larger N cannot be held; qdlab targets a few hundred.
MAX_GROUND_SIZE = 4096


def _checked_json_size(n: int) -> int:
    if n > MAX_GROUND_SIZE:
        raise ValidationError(f"n = {n} exceeds the largest supported size {MAX_GROUND_SIZE}")
    return n


@dataclass(frozen=True)
class SetSystem:
    """A ground set [N] together with an ordered family of subsets."""

    ground_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.ground_size
        if n < 1:
            raise ValidationError(f"ground_size must be >= 1, got {n}")
        canon = []
        for s in self.sets:
            t = tuple(sorted(int(i) for i in s))
            if any(i < 1 or i > n for i in t):
                raise IndexOutOfRange(f"subset {t} leaves the ground set [1, {n}]")
            if len(set(t)) != len(t):
                raise ValidationError(f"subset {t} contains duplicates")
            canon.append(t)
        if not canon:
            raise ValidationError("a set system needs at least one subset")
        object.__setattr__(self, "sets", tuple(canon))

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    def set_sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self.sets], dtype=int)

    def to_json(self) -> dict:
        return {"n": self.ground_size, "sets": [list(s) for s in self.sets]}

    @staticmethod
    def from_json(data: dict) -> "SetSystem":
        try:
            n = int(data["n"])
            sets = tuple(tuple(int(i) for i in s) for s in data["sets"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed set-system JSON: {exc}") from exc
        return SetSystem(_checked_json_size(n), sets)


@dataclass(frozen=True)
class ProjectionSystem:
    """An ordered family of orthogonal projections sharing one dimension."""

    dim: int
    projections: tuple[OrthogonalProjection, ...]

    def __post_init__(self):
        if not self.projections:
            raise ValidationError("a projection system needs at least one projection")
        for p in self.projections:
            if p.dim != self.dim:
                raise DimMismatch(f"projection of dim {p.dim} in a system of dim {self.dim}")
        object.__setattr__(self, "projections", tuple(self.projections))

    @property
    def num_projections(self) -> int:
        return len(self.projections)

    def stacked(self) -> np.ndarray:
        """All projections as one (M, N, N) array, in system order."""
        return np.stack([p.array for p in self.projections])

    def ranks(self) -> np.ndarray:
        return np.array([p.rank for p in self.projections], dtype=int)

    @staticmethod
    def from_json(data: dict) -> "ProjectionSystem":
        """Parse {"n": N, "projections": [matrix, ...]}, each matrix in the
        [re, im] pair format of matrix_from_json."""
        try:
            n, raw = int(data["n"]), list(data["projections"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed projection-system JSON: {exc}") from exc
        return ProjectionSystem(_checked_json_size(n), tuple(as_projection(matrix_from_json(p)) for p in raw))


@dataclass(frozen=True)
class Coloring:
    """A deterministic two-coloring of [N], stored as a vector of +-1 signs."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=int)
        if s.ndim != 1 or s.size < 1:
            raise ValidationError("coloring must be a non-empty 1-D sign vector")
        if not np.all(np.abs(s) == 1):
            raise ValidationError("coloring entries must be exactly -1 or +1")
        s.setflags(write=False)
        object.__setattr__(self, "signs", s)

    @property
    def ground_size(self) -> int:
        return self.signs.size

    def as_diagonal_matrix(self) -> np.ndarray:
        return np.diag(self.signs.astype(np.complex128))


def arithmetic_progressions(n: int) -> SetSystem:
    """The deduplicated family {A(a,d,l) ∩ [N] : a, d, l in [N]} with
    A(a,d,l) = {a + k d : k = 0..l}.

    Duplicates (as sorted index sets) are kept once, in first-occurrence
    order of the (a, d, l) enumeration. The family always contains every
    singleton {i} and the full interval [N].
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    seen: dict[tuple[int, ...], None] = {}
    for a in range(1, n + 1):
        for d in range(1, n + 1):
            for l in range(1, n + 1):
                prog = tuple(x for k in range(l + 1) if (x := a + k * d) <= n)
                if prog and prog not in seen:
                    seen[prog] = None
    return SetSystem(n, tuple(seen.keys()))


def random_set_system(n: int, m: int, seed) -> SetSystem:
    """M subsets of [N], each element included independently with
    probability 1/2; deterministic given the seed. Empty draws are kept."""
    if n < 1 or m < 1:
        raise ValidationError("need n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < 0.5
    sets = tuple(tuple(int(j + 1) for j in np.flatnonzero(row)) for row in mask)
    return SetSystem(n, sets)


def to_projection_system(system: SetSystem) -> ProjectionSystem:
    """Embed each subset S as the diagonal 0/1 projection onto span{e_i : i in S}."""
    n = system.ground_size
    projs = []
    for s in system.sets:
        diag = np.zeros(n, dtype=np.complex128)
        for i in s:
            diag[i - 1] = 1.0
        projs.append(as_projection(np.diag(diag)))
    return ProjectionSystem(n, tuple(projs))


def evaluate_coloring(system: SetSystem, coloring: Coloring) -> list[int]:
    """Per-set signed sums chi(S) = sum_{s in S} chi(s)."""
    if coloring.ground_size != system.ground_size:
        raise DimMismatch(
            f"coloring of length {coloring.ground_size} on a ground set of size {system.ground_size}"
        )
    signs = coloring.signs
    return [int(sum(signs[i - 1] for i in s)) for s in system.sets]


def incidence_matrix(system: SetSystem) -> np.ndarray:
    """The M x N 0/1 matrix with A[i, j] = 1 iff j is in the i-th set."""
    a = np.zeros((system.num_sets, system.ground_size), dtype=int)
    for row, s in enumerate(system.sets):
        for i in s:
            a[row, i - 1] = 1
    return a
