"""Set systems on [N]: canonical generators, colorings, and the embedding
into diagonal projection systems.

Ground-set indices are 1-based everywhere, including serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimMismatch, IndexOutOfRange, ValidationError
from .matcore import OrthogonalProjection, matrix_from_json, projection_stack, projection_views

# Largest ground set or dimension accepted from JSON. Projection systems are
# dense N x N arrays, so a larger N cannot be held; qdlab targets a few hundred.
MAX_GROUND_SIZE = 4096
# Largest set count M a command line or config file may ask for; the
# defaults ask for at most 2048 (lbound's m_cap).
MAX_SET_COUNT = 1 << 16
# Largest N^2 M of a projection system, which is one dense complex (M, N, N)
# stack, built, validated and read in place: 256 MiB at the cap. The defaults
# hold at most 2^21 (lbound, N = 32, M = 2048).
MAX_DENSE_ENTRIES = 1 << 24


def _json_int(value, what: str) -> int:
    """A JSON integer as it was written: no float, string or bool is coerced."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be a JSON integer, got {value!r}")
    return value


def check_dense_size(n: int, m: int) -> None:
    """Refuse, before allocating, M dense N x N projections above the cap."""
    if n * n * m > MAX_DENSE_ENTRIES:
        raise ValidationError(
            f"{m} projections of dimension {n} hold {n * n * m} entries, "
            f"above the largest supported {MAX_DENSE_ENTRIES}"
        )


def _checked_json_size(n) -> int:
    n = _json_int(n, "n")
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
            n = _checked_json_size(data["n"])
            sets = tuple(tuple(_json_int(i, "a set element") for i in s) for s in data["sets"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed set-system JSON: {exc}") from exc
        return SetSystem(n, sets)


class ProjectionSystem:
    """An ordered family of M orthogonal projections on C^N, held as one
    read-only complex (M, N, N) stack with its int ranks, both validated
    once at construction. A writeable complex128 stack is taken over, not
    copied (see matcore.projection_stack)."""

    def __init__(self, stack):
        self._stack, self._ranks = projection_stack(stack)
        self.num_projections, self.dim = self._stack.shape[:2]

    def stacked(self) -> np.ndarray:
        """All projections as one read-only (M, N, N) array, in system order."""
        return self._stack

    def ranks(self) -> np.ndarray:
        return self._ranks

    @cached_property
    def projections(self) -> tuple[OrthogonalProjection, ...]:
        """Each projection on its own, as a view of its slice of the stack."""
        return projection_views(self._stack, self._ranks)

    @staticmethod
    def from_json(data: dict) -> "ProjectionSystem":
        """Parse {"n": N, "projections": [matrix, ...]}, each matrix in the
        [re, im] pair format of matrix_from_json."""
        try:
            n, raw = _checked_json_size(data["n"]), list(data["projections"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed projection-system JSON: {exc}") from exc
        matrices = [matrix_from_json(p) for p in raw]
        if any(a.shape != (n, n) for a in matrices):
            raise DimMismatch(f"every matrix of a system of dim {n} must be {n} x {n}")
        return ProjectionSystem(matrices)


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
            # past l = (n - a) // d every progression is the same, saturated one
            for l in range(1, max(1, (n - a) // d) + 1):
                prog = tuple(x for k in range(l + 1) if (x := a + k * d) <= n)
                if prog not in seen:
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
    check_dense_size(n, system.num_sets)
    stack = np.zeros((system.num_sets, n, n), dtype=np.complex128)
    stack[:, range(n), range(n)] = incidence_matrix(system)
    return ProjectionSystem(stack)


def evaluate_coloring(system: SetSystem, coloring: Coloring) -> list[int]:
    """Per-set signed sums chi(S) = sum_{s in S} chi(s)."""
    if coloring.ground_size != system.ground_size:
        raise DimMismatch(
            f"coloring of length {coloring.ground_size} on a ground set of size {system.ground_size}"
        )
    return [int(v) for v in incidence_matrix(system) @ coloring.signs]


def incidence_matrix(system: SetSystem) -> np.ndarray:
    """The M x N 0/1 matrix with A[i, j] = 1 iff j is in the i-th set."""
    a = np.zeros((system.num_sets, system.ground_size), dtype=int)
    for row, s in enumerate(system.sets):
        a[row, np.array(s, dtype=int) - 1] = 1
    return a
