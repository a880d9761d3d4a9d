"""Bi-graded vector spaces, sparse vectors, and (bi)linear maps.

A space is a finite ordered basis with a BiDegree per element.  Basis order
is significant: PBW normal ordering downstream keys off positions in this
list, so loaders must preserve file order.  Vectors are sparse dicts from
basis index to CycloScalar and are treated as immutable; all operations
return fresh objects.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .errors import BiglaError
from .scalars import BiDegree, CycloScalar, ONE, ScalarLike, ZERO
from .sparse import Combination, add_scaled

_new = object.__new__


class BiGradedSpace:
    def __init__(self, basis: Sequence[tuple[str, BiDegree]], name: str = ""):
        labels = [lab for lab, _ in basis]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels in {name or 'space'}")
        self.name = name
        self.labels = tuple(labels)
        self.degrees = tuple(deg for _, deg in basis)
        # each degree as its code in scalars.DEGREE_OF_CODE
        self.codes = tuple(2 * deg.eps1 + deg.eps2 for deg in self.degrees)
        self._index = {lab: k for k, lab in enumerate(labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no basis element {label!r} in {self.name or 'space'}")
        return self._index[label]

    def basis_vector(self, k: int) -> "Vector":
        return Vector(self, {k: ONE})

    def zero(self) -> "Vector":
        return Vector(self, {})

    def __eq__(self, other):
        if not isinstance(other, BiGradedSpace):
            return NotImplemented
        return self.labels == other.labels and self.degrees == other.degrees

    def __hash__(self):
        return hash((self.labels, self.degrees))

    def __repr__(self):
        return f"BiGradedSpace({self.name or self.labels}, dim={self.dim})"


class Vector(Combination):
    """Sparse vector over a BiGradedSpace.  Zero entries are dropped."""

    __slots__ = ("space",)

    def __init__(self, space: BiGradedSpace, coeffs: Mapping[int, CycloScalar]):
        self.space = space
        super().__init__(coeffs)

    @classmethod
    def of_nonzero(cls, space: BiGradedSpace, coeffs: dict[int, CycloScalar]) -> "Vector":
        """The vector with coeffs, a dict that holds no zero and that the
        caller hands over: it is kept as it is, not filtered or copied."""
        v = _new(cls)
        v.space = space
        v.coeffs = coeffs
        return v

    def base(self) -> tuple:
        return (self.space,)

    # benchmarks/layertrace.py patches these in Vector's own __dict__
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__
    __neg__ = Combination.__neg__
    scale = Combination.scale

    def __rmul__(self, c: ScalarLike) -> "Vector":
        return self.scale(c)

    def coeff(self, k: int) -> CycloScalar:
        return self.coeffs.get(k, ZERO)

    def degree(self) -> Optional[BiDegree]:
        """The common degree of the support, or None if mixed or zero."""
        degs = {self.space.degrees[k] for k in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_parts(self) -> dict[BiDegree, "Vector"]:
        parts: dict[BiDegree, dict[int, CycloScalar]] = {}
        for k, c in self.coeffs.items():
            parts.setdefault(self.space.degrees[k], {})[k] = c
        return {d: Vector(self.space, m) for d, m in parts.items()}

    def _name(self, k: int) -> str:
        return self.space.labels[k]


def _checked_images(source: BiGradedSpace, target: BiGradedSpace,
                    images: Mapping[int, Vector]) -> dict[int, Vector]:
    """Every basis image, zero where none is given.

    Each image must lie in target and be homogeneous of its letter's
    degree; violating images raise BiglaError up front, since nothing
    downstream can interpret a non-homogeneous map.
    """
    out = {}
    for k in range(source.dim):
        img = images[k] if k in images else target.zero()
        if img.space != target:
            raise BiglaError("image vector not in target space")
        got = img.degree()
        if img and got != source.degrees[k]:
            raise BiglaError(f"image of {source.labels[k]} has degree {got}, "
                             f"expected {source.degrees[k]}")
        out[k] = img
    return out


class LinearMap:
    """Degree-preserving linear map given by basis images."""

    def __init__(self, source: BiGradedSpace, target: BiGradedSpace,
                 images: Mapping[int, Vector]):
        self.source = source
        self.target = target
        self.images = _checked_images(source, target, images)

    @classmethod
    def diagonal(cls, space: BiGradedSpace, scalars: Sequence[ScalarLike]) -> "LinearMap":
        return cls(space, space,
                   {k: space.basis_vector(k).scale(scalars[k]) for k in range(space.dim)})

    def __call__(self, v: Vector) -> Vector:
        if v.space != self.source:
            raise BiglaError("vector not in the map's source space")
        out: dict[int, CycloScalar] = {}
        for k, c in v.coeffs.items():
            add_scaled(out, self.images[k].coeffs, c)
        return Vector(self.target, out)


class AntiLinearMap:
    """Like LinearMap on basis vectors, but conjugates coefficients.

    Models conjugate-linear structure maps (a matrix star operation, say) on
    algebras whose structure constants are conj-fixed.
    """

    def __init__(self, space: BiGradedSpace, images: Mapping[int, Vector]):
        self.space = space
        self.images = _checked_images(space, space, images)

    def __call__(self, v: Vector) -> Vector:
        if v.space != self.space:
            raise BiglaError("vector not in the map's space")
        out: dict[int, CycloScalar] = {}
        for k, c in v.coeffs.items():
            add_scaled(out, self.images[k].coeffs, c.conj())
        return Vector(self.space, out)


class BilinearMap:
    """Bilinear map V x V -> V from structure constants on basis pairs.
    Like its vectors it is immutable: constants is not changed after
    construction, so lie._int_rows keeps the packed int rows in _packed."""

    def __init__(self, space: BiGradedSpace, constants: Mapping[tuple[int, int], Vector]):
        self.space = space
        self.constants: dict[tuple[int, int], Vector] = {}
        for (i, j), v in constants.items():
            if v.space is not space and v.space != space:
                raise BiglaError("structure constant vector not in the space")
            if v.coeffs:
                self.constants[(i, j)] = v
        self._packed = None

    def pair(self, i: int, j: int) -> Vector:
        v = self.constants.get((i, j))
        return self.space.zero() if v is None else v

    def __call__(self, a: Vector, b: Vector) -> Vector:
        if a.space != self.space or b.space != self.space:
            raise BiglaError("operands not in the map's space")
        out: dict[int, CycloScalar] = {}
        for i, ca in a.coeffs.items():
            for j, cb in b.coeffs.items():
                v = self.constants.get((i, j))
                if v is not None:
                    add_scaled(out, v.coeffs, ca * cb)
        return Vector(self.space, out)

    def check_homogeneity(self) -> list[tuple[int, int]]:
        """Pairs (i,j) whose value is not homogeneous of deg(i)+deg(j): a
        letter of the value whose degree code is not code(i) ^ code(j)."""
        codes = self.space.codes
        bad = []
        for (i, j), v in self.constants.items():
            c = codes[i] ^ codes[j]
            for l in v.coeffs:
                if codes[l] != c:
                    bad.append((i, j))
                    break
        return sorted(bad)
