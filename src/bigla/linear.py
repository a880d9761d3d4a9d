"""Bi-graded vector spaces, sparse vectors, and (bi)linear maps.

A space is a finite ordered basis with a BiDegree per element.  Basis order
is significant: PBW normal ordering downstream keys off positions in this
list, so loaders must preserve file order.  Vectors are sparse dicts from
basis index to CycloScalar and are treated as immutable; all operations
return fresh objects.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .errors import DegreeViolation, SpaceMismatch
from .scalars import BiDegree, CycloScalar, ONE, ScalarLike, as_scalar
from .sparse import add_scaled, format_term, join_terms


class BiGradedSpace:
    def __init__(self, basis: Sequence[tuple[str, BiDegree]], name: str = ""):
        labels = [lab for lab, _ in basis]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate basis labels in {name or 'space'}")
        self.name = name
        self.labels = tuple(labels)
        self.degrees = tuple(deg for _, deg in basis)
        self._index = {lab: k for k, lab in enumerate(labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"no basis element {label!r} in {self.name or 'space'}")
        return self._index[label]

    def degree(self, k: int) -> BiDegree:
        return self.degrees[k]

    def component(self, deg: BiDegree) -> list[int]:
        return [k for k, d in enumerate(self.degrees) if d == deg]

    def basis_vector(self, k: int) -> "Vector":
        return Vector(self, {k: ONE})

    def vector(self, coeffs: Mapping[str, ScalarLike]) -> "Vector":
        return Vector(self, {self.index(lab): as_scalar(c) for lab, c in coeffs.items()})

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


def _same_space(a: "Vector", b: "Vector"):
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space!r} vs {b.space!r}")


class Vector:
    """Sparse vector over a BiGradedSpace.  Zero entries are dropped."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: BiGradedSpace, coeffs: Mapping[int, CycloScalar]):
        self.space = space
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def __add__(self, other: "Vector") -> "Vector":
        _same_space(self, other)
        out = dict(self.coeffs)
        add_scaled(out, other.coeffs)
        return Vector(self.space, out)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return Vector(self.space, {k: -c for k, c in self.coeffs.items()})

    def scale(self, c: ScalarLike) -> "Vector":
        c = as_scalar(c)
        return Vector(self.space, {k: c * v for k, v in self.coeffs.items()})

    def __rmul__(self, c: ScalarLike) -> "Vector":
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.space, tuple(sorted((k, v.c) for k, v in self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k: int) -> CycloScalar:
        return self.coeffs.get(k, CycloScalar.zero())

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

    def conj_coeffs(self) -> "Vector":
        return Vector(self.space, {k: c.conj() for k, c in self.coeffs.items()})

    def pretty(self) -> str:
        labels = self.space.labels
        return join_terms(format_term(self.coeffs[k], labels[k])
                          for k in sorted(self.coeffs))

    def __repr__(self):
        return f"<{self.pretty()}>"


def _checked_images(source: BiGradedSpace, target: BiGradedSpace,
                    images: Mapping[int, Vector]) -> dict[int, Vector]:
    """Every basis image, zero where none is given.

    Each image must lie in target and be homogeneous of its letter's
    degree; violating images raise DegreeViolation up front, since nothing
    downstream can interpret a non-homogeneous map.
    """
    out = {}
    for k in range(source.dim):
        img = images.get(k, target.zero())
        if img.space != target:
            raise SpaceMismatch("image vector not in target space")
        got = img.degree()
        if img and got != source.degrees[k]:
            raise DegreeViolation(f"image of {source.labels[k]} has degree {got}, "
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

    @classmethod
    def identity(cls, space: BiGradedSpace) -> "LinearMap":
        return cls.diagonal(space, [1] * space.dim)

    def __call__(self, v: Vector) -> Vector:
        if v.space != self.source:
            raise SpaceMismatch("vector not in the map's source space")
        out: dict[int, CycloScalar] = {}
        for k, c in v.coeffs.items():
            add_scaled(out, self.images[k].coeffs, c)
        return Vector(self.target, out)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)


class AntiLinearMap:
    """Like LinearMap on basis vectors, but conjugates coefficients.

    Models conjugate-linear structure maps (a matrix star operation, say) on
    algebras whose structure constants are conj-fixed.
    """

    def __init__(self, space: BiGradedSpace, images: Mapping[int, Vector]):
        self.space = space
        self.images = _checked_images(space, space, images)

    @classmethod
    def diagonal_signs(cls, space: BiGradedSpace, signs: Sequence[int]) -> "AntiLinearMap":
        return cls(space, {k: space.basis_vector(k).scale(signs[k])
                           for k in range(space.dim)})

    def __call__(self, v: Vector) -> Vector:
        if v.space != self.space:
            raise SpaceMismatch("vector not in the map's space")
        out: dict[int, CycloScalar] = {}
        for k, c in v.coeffs.items():
            add_scaled(out, self.images[k].coeffs, c.conj())
        return Vector(self.space, out)


class BilinearMap:
    """Bilinear map V x V -> V from structure constants on basis pairs."""

    def __init__(self, space: BiGradedSpace, constants: Mapping[tuple[int, int], Vector]):
        self.space = space
        self.constants: dict[tuple[int, int], Vector] = {}
        for (i, j), v in constants.items():
            if v.space != space:
                raise SpaceMismatch("structure constant vector not in the space")
            if v:
                self.constants[(i, j)] = v

    def pair(self, i: int, j: int) -> Vector:
        return self.constants.get((i, j), self.space.zero())

    def __call__(self, a: Vector, b: Vector) -> Vector:
        if a.space != self.space or b.space != self.space:
            raise SpaceMismatch("operands not in the map's space")
        out: dict[int, CycloScalar] = {}
        for i, ca in a.coeffs.items():
            for j, cb in b.coeffs.items():
                v = self.constants.get((i, j))
                if v is not None:
                    add_scaled(out, v.coeffs, ca * cb)
        return Vector(self.space, out)

    def check_homogeneity(self) -> list[tuple[int, int]]:
        """Pairs (i,j) whose value is not homogeneous of deg(i)+deg(j)."""
        bad = []
        degs = self.space.degrees
        for (i, j), v in sorted(self.constants.items()):
            if v.degree() != degs[i] + degs[j]:
                bad.append((i, j))
        return bad
