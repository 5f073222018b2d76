"""Lattice fixture generators used by tests, experiments, and the CLI."""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction

from ._validation import check_count
from .lattice import LatticeBasis
from .rng import stream

# primitive Pythagorean triples; each gives an exact rational plane rotation
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def integer_identity(n):
    """Z^n with the standard basis."""
    n = check_count("n", n)
    return LatticeBasis([[1 if j == i else 0 for j in range(n)] for i in range(n)])


def checkerboard(n):
    """The integer vectors with even coordinate sum, rank n.

    Basis rows are 2e_1 and e_1 + e_i for i = 2..n; differences of the
    latter give all e_i - e_j, so the rows generate the full parity-zero
    sublattice. The shortest nonzero vectors have squared norm 2.
    """
    n = check_count("n", n)
    rows = [[2 if j == 0 else 0 for j in range(n)]]
    for i in range(1, n):
        rows.append([1 if j == 0 else (1 if j == i else 0) for j in range(n)])
    return LatticeBasis(rows)


def random_integer(n, seed=0, bound=10):
    """Entries uniform in [-bound, bound], redrawn until full rank."""
    n = check_count("n", n)
    bound = check_count("bound", bound)
    rng = stream(seed, 1)
    while True:
        rows = rng.integers(-bound, bound + 1, size=(n, n))
        try:
            return LatticeBasis([[int(x) for x in r] for r in rows])
        except ValueError:
            continue


def random_dual_orthogonal(n, seed=0, bound=5, turns=None):
    """Orthogonal rational rows, so the dual basis is orthogonal too.

    Starts from a random integer diagonal and applies exact plane
    rotations built from Pythagorean triples; inner products between rows
    are preserved, keeping both the basis and its dual orthogonal while
    breaking all axis alignment.
    """
    n = check_count("n", n)
    bound = check_count("bound", bound)
    rng = stream(seed, 2)
    diag = rng.integers(1, bound + 1, size=n)
    rows = [[Fraction(int(diag[i])) if j == i else Fraction(0) for j in range(n)]
            for i in range(n)]
    for _ in range(3 * n if turns is None else int(turns)):
        if n < 2:
            break
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        a, b, c = _TRIPLES[int(rng.integers(0, len(_TRIPLES)))]
        if int(rng.integers(0, 2)):
            a, b = b, a
        ca, cb = Fraction(a, c), Fraction(b, c)
        for r in rows:
            r[i], r[j] = ca * r[i] - cb * r[j], cb * r[i] + ca * r[j]
    return LatticeBasis(rows)


_KINDS = {
    "integer-identity": integer_identity,
    "checkerboard": checkerboard,
    "random-integer": random_integer,
    "random-dual-orthogonal": random_dual_orthogonal,
}


def _params(kind):
    """The generator's parameter names after the rank."""
    return tuple(inspect.signature(_KINDS[kind]).parameters)[1:]


@dataclass(frozen=True)
class LatticeGeneratorSpec:
    """A generator name, the rank, and extra keyword parameters.

    The keys are the generator's keyword parameters; seed is not one of
    them, as generate_lattice passes it.
    """

    kind: str
    n: int
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown lattice kind {self.kind!r}; choices: {sorted(_KINDS)}")
        allowed = [k for k in _params(self.kind) if k != "seed"]
        for key, _ in self.params:
            if key not in allowed:
                raise ValueError(
                    f"{self.kind} takes no parameter {key!r}; allowed keys: {allowed}"
                )

    @classmethod
    def parse(cls, text):
        """Parse 'kind:n' or 'kind:n,key=value,...'."""
        head, _, rest = text.strip().partition(":")
        kind = head.strip()
        if not rest:
            raise ValueError(f"lattice spec {text!r} is missing the rank, e.g. {kind}:8")
        parts = [p.strip() for p in rest.split(",")]
        n = int(parts[0])
        params = []
        for p in parts[1:]:
            key, _, val = p.partition("=")
            if not val:
                raise ValueError(f"bad lattice parameter {p!r}; want key=value")
            params.append((key.strip(), int(val)))
        return cls(kind, n, tuple(params))


def generate_lattice(spec, seed=0):
    """Build the lattice described by spec (a LatticeGeneratorSpec or string)."""
    if isinstance(spec, str):
        spec = LatticeGeneratorSpec.parse(spec)
    kwargs = dict(spec.params)
    if "seed" in _params(spec.kind):
        kwargs["seed"] = seed
    return _KINDS[spec.kind](spec.n, **kwargs)
