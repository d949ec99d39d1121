"""Exact polytope computations: hulls, projections, membership.

Polytopes appear in two representations:

* `VPolytope`: a list of vertices (rational vectors).
* `HPolytope`: facet inequalities (sense <=) plus affine-hull equalities.

Row reductions (affine hulls, null spaces, equality systems, the starting
cone of the double description) go through one fraction-free Gauss-Jordan
elimination over Python ints, `_echelon`, whose rows are the primitive integer
multiples of the reduced row echelon form.  Inequality rows, equality
systems and null-space vectors stay primitive `int` tuples from there to the
returned polytope, and facet lists sort in `LinearInequality`'s own order,
(coeffs, bound).  Conversions run through an incremental
double-description cone algorithm over primitive integer vectors.  Its
dense integer arithmetic (row . ray dots, new rays, the restriction to and
from the cone's coordinates), the slacks of the orbit search and those of
its final check run as numpy products, in int64 where a bound on the
operands proves that every value stays below 2**63 and on Python ints
(dtype=object) otherwise; numpy is imported on that path only.
Its rays' tight sets are one array of uint64 words carried from insertion to
insertion.  Pairs of rays are counted a word at a time against the adjacency
condition's popcount bound and screened against the rays tight on the most
rows, or against every ray while few are held, which is the full adjacency
test; only the pairs left go through a pair-by-pair test on Python ints.
The final check takes its ranks over GF(p), with none of the `_echelon`
that found the hull.
A hull with a known symmetry group is found one orbit at a time by
adjacency decomposition: the double description runs only on the vertices
of each orbit representative, to find its ridges, and each ridge is rotated
to the neighbouring facet; checks separate from the search confirm the
generators and the answer against the vertices.  It returns the orbits, and
`facet_orbits` walks a projection's.  Projections run through Fourier-Motzkin
elimination on integer rows: one pass substitutes every equality, which
leaves each row in its canonical form modulo the equalities kept, then row
combination for the variables left, deduplicating after every step, with
one redundancy pass over the final rows.  That pass finds one feasible
point and one strictly interior point by LP.  A row that the ray from the
interior point along its normal meets first is kept by integer ray shooting;
every other row gets an exact LP that starts from the feasible point and
skips phase 1.  Every verdict is certified: a row dropped by multipliers on
the rows kept, a row kept by a point that violates it alone.
Membership tests are LP feasibility problems whose answers carry
certificates: explicit convex weights for inside points, a separating
inequality for outside points.  That inequality is a facet of maximal
normalized violation, found by one LP over the polar of the centred hull
that starts from the slack basis, and checked to be a facet by the GF(p)
rank of the vertices tight on it against the hull's equalities.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, CertificateError
from .linprog import LpStatus, solve_lp
from .rationals import integerize, over_common_denominator, primitive
from .scenario import Correlation, Kind, Scenario, classical_correlations

__all__ = [
    "LinearInequality",
    "HPolytope",
    "VPolytope",
    "MembershipCertificate",
    "reduce_modulo",
    "facet_enumeration",
    "adjacency_decomposition",
    "facet_orbits",
    "vertex_enumeration",
    "fourier_motzkin_project",
    "membership",
    "maximize_linear",
    "no_signalling_polytope",
    "normalization_equalities",
    "classical_vpolytope",
]

_F0 = Fraction(0)

Equality = tuple[tuple[int | Fraction, ...], int | Fraction]


@dataclass(frozen=True, order=True)
class LinearInequality:
    """The half-space coeffs . x <= bound.

    Entries are rationals; every inequality the package returns has
    primitive `int` entries, which compare, hash and print like the equal
    `Fraction`s.  Equalities, (coeffs, rhs) pairs, follow the same rule.
    They order as (coeffs, bound) tuples, the order every facet list sorts in.
    """

    coeffs: tuple[int | Fraction, ...]
    bound: int | Fraction

    def violation(self, point: Sequence[Fraction]) -> Fraction:
        """coeffs . point - bound; positive means the inequality is violated."""
        return sum(c * p for c, p in zip(self.coeffs, point)) - self.bound


def reduce_modulo(
    ineq: LinearInequality, equalities: Sequence[Equality]
) -> LinearInequality:
    """The canonical representative of an inequality modulo an equality system.

    Facet inequalities of a lower-dimensional polytope are only defined up to
    multiples of the affine-hull equalities.  Zeroing the coefficients on the
    leading column of each (row-reduced) equality picks a unique
    representative, so two inequalities cut the same face iff they reduce to
    the same canonical form: primitive `int` entries, positive scales only.
    """
    return _reduced(
        _eliminate_leads(equalities), integerize((*ineq.coeffs, ineq.bound))
    )


def _reduced(
    eliminate: Callable[[Sequence[int]], tuple[int, ...]], row: Sequence[int]
) -> LinearInequality:
    """The inequality of the integer row (coeffs..., bound) after an
    `_eliminate_leads` map; ValueError for the zero inequality."""
    row = eliminate(row)
    if not any(row):
        raise ValueError("cannot canonicalize the zero inequality")
    return LinearInequality(row[:-1], row[-1])


def _eliminate_leads(
    equalities: Sequence[Equality],
) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map that zeroes the leading column of each row-reduced equality in
    an integer row (coeffs..., bound) of coeffs . x <= bound.

    With E_k the equality k as the row (coeffs..., rhs), p_k > 0 its lead on
    column l_k and P the lcm of the leads, a row maps to
    primitive(P row - sum_k row[l_k] (P / p_k) E_k): one integer pass and
    one gcd, whatever the number of equalities.  Each E_k is zero on the
    other leads, so that is the one combination of the row and the
    equalities that vanishes on every lead, up to the positive scale that
    `primitive` removes.  The map is built once per equality system, each
    E_k kept as its nonzero entries, and the build raises ValueError unless
    the equalities are row-reduced with positive leads, as
    `_reduce_equalities` returns them; rational entries are scaled to
    integers first.
    """
    rows = [integerize((*coeffs, rhs)) for coeffs, rhs in equalities]
    terms, scale = [], 1
    for e in rows:
        j = next((j for j, c in enumerate(e[:-1]) if c), None)
        if j is None or e[j] < 0 or sum(f[j] != 0 for f in rows) > 1:
            raise ValueError("equalities must be row-reduced with positive leads")
        terms.append((j, e))
        scale = lcm(scale, e[j])
    terms = [(j, [(i, scale // e[j] * c) for i, c in enumerate(e) if c]) for j, e in terms]

    def eliminate(row: Sequence[int]) -> tuple[int, ...]:
        out = [scale * v for v in row] if scale != 1 else list(row)
        for j, entries in terms:
            f = row[j]
            if f:
                for i, c in entries:
                    out[i] -= f * c
        return primitive(out)

    return eliminate


@dataclass(frozen=True)
class HPolytope:
    dim: int
    inequalities: tuple[LinearInequality, ...]
    equalities: tuple[Equality, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.dim}")
        for ineq in self.inequalities:
            if len(ineq.coeffs) != self.dim:
                raise ValueError("inequality length does not match dimension")
        for coeffs, _ in self.equalities:
            if len(coeffs) != self.dim:
                raise ValueError("equality length does not match dimension")


@dataclass(frozen=True)
class VPolytope:
    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        for v in self.vertices:
            if len(v) != self.dim:
                raise ValueError("vertex length does not match dimension")

    @staticmethod
    def from_points(points: Iterable[Sequence]) -> "VPolytope":
        """Deduplicate and sort points lexicographically.

        Entries that are already `Fraction`s are kept as they are, and
        duplicates are dropped after sorting, so no entry is hashed.
        """
        rows = sorted(
            tuple(v if isinstance(v, Fraction) else Fraction(v) for v in p)
            for p in (q.entries if isinstance(q, Correlation) else q for q in points)
        )
        if not rows:
            raise ValueError("no points given")
        out = [t for t, prev in zip(rows, [None, *rows]) if t != prev]
        return VPolytope(len(rows[0]), tuple(out))


@dataclass(frozen=True)
class MembershipCertificate:
    """Verdict of a membership test, with checkable evidence.

    inside: `weights[i]` is the coefficient of `vertices[i]` in an explicit
    convex combination equal to the query.  outside: `separator` holds on
    every vertex and is violated by the query by `margin` > 0.  Extension
    feasibility tests store the extending point in `extension` instead of
    vertex weights.
    """

    inside: bool
    weights: tuple[Fraction, ...] | None = None
    separator: LinearInequality | None = None
    margin: Fraction | None = None
    extension: tuple[Fraction, ...] | None = None


def _as_point(point, dim: int) -> tuple[Fraction, ...]:
    if isinstance(point, Correlation):
        if not point.exact:
            raise TypeError("exact computations need rational entries")
        point = point.entries
    point = tuple(Fraction(v) for v in point)
    if len(point) != dim:
        raise ValueError(f"expected a point of dimension {dim}, got {len(point)}")
    return point


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination


def _echelon(rows: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over the integers; returns the nonzero rows
    and their pivot columns.

    Each rational row is scaled to primitive integers up front; elimination
    then stays on Python ints and divides every updated row by its content.
    A returned row is primitive, has a positive pivot and is zero on the other
    pivot columns: the primitive positive multiple of the unique RREF row.
    """
    rows = [integerize(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        lead = len(pivots)
        if lead == len(rows):
            break
        pr = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        prow = rows[pr] if rows[pr][col] > 0 else tuple(-v for v in rows[pr])
        rows[pr] = rows[lead]
        rows[lead] = prow
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != lead:
                rows[i] = primitive([p * v - f * pv for v, pv in zip(row, prow)])
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _null_space(
    rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int
) -> list[tuple[int, ...]]:
    """A basis of {y : rows . y = 0} from an `_echelon` result: one primitive
    integer vector per free column, positive there and 0 on the other free
    ones, with that column scaled to the lcm of the pivots it meets."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        scale = lcm(*(row[pc] for row, pc in zip(rows, pivots) if row[f]))
        vec = [0] * ncols
        vec[f] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f] * (scale // row[pc])
        basis.append(primitive(vec))
    return basis


# ---------------------------------------------------------------------------
# double description over primitive integer vectors


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _exact_dtype(bound: int):
    """The numpy dtype for integer arithmetic in which no value exceeds
    `bound` in magnitude: int64 below 2**63, where it is exact, and Python
    ints (dtype=object) otherwise.  Both run the same numpy code."""
    import numpy as np

    return np.int64 if bound < 2**63 else object


def _max_abs(rows: Iterable[Sequence[int]]) -> int:
    return max(map(abs, itertools.chain.from_iterable(rows)), default=0)


def _exact_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    """The matrix product a . b^T of two nonempty lists of int rows, as a
    numpy array; no sum it takes exceeds len(b[0]) * max|a| * max|b|."""
    import numpy as np

    dtype = _exact_dtype(len(b[0]) * _max_abs(a) * _max_abs(b))
    return np.array(a, dtype) @ np.array(b, dtype).T


# The pair prefilter takes as many positive rays per block as keep its
# positives x negatives count near 2**16 entries.
_PAIR_BLOCK = 1 << 16
# The witness screen tests each pair that passes the prefilter against this
# many rays, those tight on the most constraints, in chunks of pairs that
# keep its pairs x screen rays temporaries within the same 2**16 entries.
# While at most 4 * _SCREEN rays are held, the screen holds every ray, which
# makes it the full adjacency test, and no pair goes on to the pair loop.
_SCREEN = 32


def _dd_pointed(
    rows: list[tuple[int, ...]], max_rays: int
) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {u : row . u >= 0 for every row}.

    Incremental insertion in the given row order; adjacency of rays is decided
    combinatorially from tight-constraint bitmasks (Fukuda and Prodon, "Double
    description method revisited", 1996): rays p and m are adjacent iff no
    third ray is tight on every constraint both are tight on.  Any such third
    ray is a witness against the pair, and one found for (p, m) often rules
    out (p, m') too, so each positive ray keeps the witnesses it has met and
    tries them before the full test.  Raises ValueError unless rank(rows)
    equals the ambient dimension (a pointed cone), and CapacityError, naming
    the row being inserted, once more than `max_rays` rays are held.

    The rays are one integer array, so each insertion takes its row . ray
    dots, and the new rays dp R[m] - dm R[p] of its adjacent pairs, as a few
    array operations.  They are exact in the dtype `_exact_dtype` picks from
    2 r max|row| max|ray|^2, the largest value they reach.  The tight sets
    are one (rays x words) array of uint64 words, carried from insertion to
    insertion: the rays kept are taken by index, with the row's bit set on
    those tight on it, and a new ray's set is tight[p] & tight[m] plus that
    bit.  The necessary condition |tight[p] & tight[m]| >= r - 2 is counted
    for a block of (positive, negative) pairs one word at a time, into an
    unsigned count just wide enough for the number of rows.  The pairs that
    pass are screened against the `_SCREEN` rays tight on the most
    constraints: a screen ray k is tight on all of common = tight[p] &
    tight[m] when no word of common & ~tight[k] is nonzero, and such a k
    other than p and m is exactly the witness the full test looks for, so
    the screen drops only pairs that are not adjacent.  While the rays are
    few (at most 4 * `_SCREEN`) the screen holds every ray; that is the full
    test, and the pairs it keeps are the adjacent ones.  Otherwise the pairs
    left meet the witnesses and the full test one at a time, on Python-int
    masks built for that insertion.  Either way the new rays follow
    (p, then m) order, so the rays after every insertion are those of a
    pair-by-pair run.
    """
    # Imported here, not with the module: the DD is the package's only numpy
    # user, so commands that run no DD never load it.
    import numpy as np

    r = len(rows[0])
    # Initial simplicial cone from the first r independent rows A.  Echelon
    # of [rows^T | I] is [E | (A^-1)^T]: its pivots pick A, and the identity
    # block carries the columns of A^-1, each tight on all of A but one row.
    n = len(rows)
    ech, chosen = _echelon(
        [list(col) + [int(j == k) for j in range(r)] for k, col in enumerate(zip(*rows))]
    )
    if chosen[-1] >= n:
        raise ValueError("cone is not pointed (rank-deficient constraint matrix)")

    rays = np.array([primitive(e[n:]) for e in ech], dtype=object)
    words = (n + 63) // 64
    full = sum(1 << idx for idx in chosen)
    tight = np.frombuffer(
        b"".join((full ^ (1 << idx)).to_bytes(8 * words, "little") for idx in chosen),
        "<u8",
    ).reshape(r, words).astype(np.uint64)
    count_dtype = np.uint8 if n < 1 << 8 else np.uint16 if n < 1 << 16 else np.uint32
    chosen_set = set(chosen)
    need = max(r - 2, 0)
    for idx, row in enumerate(rows):
        if idx in chosen_set:
            continue
        bound = 2 * r * _max_abs([row]) * int(np.abs(rays).max()) ** 2
        rays = rays.astype(_exact_dtype(bound), copy=False)
        dots = rays @ np.array(row, rays.dtype)
        word, bit = idx // 64, np.uint64(1 << idx % 64)
        neg = np.flatnonzero(dots < 0)
        zero = np.flatnonzero(dots == 0)
        if not len(neg):
            tight[zero, word] |= bit
            continue
        pos = np.flatnonzero(dots > 0)
        held = len(tight)
        if held <= 4 * _SCREEN:
            screen = np.arange(held)
        else:
            screen = np.argsort(
                -np.bitwise_count(tight).sum(axis=1), kind="stable"
            )[:_SCREEN]
        not_screen = ~tight[screen]
        in_screen = np.zeros(held, np.int32)
        in_screen[screen] = 1
        neg_words = tight[neg].T.copy()
        chunk = max(1, _PAIR_BLOCK // max(len(screen), 1))
        block = max(1, _PAIR_BLOCK // len(neg))
        kept_p, kept_m = [pos[:0]], [neg[:0]]
        for b in range(0, len(pos), block):
            ps = pos[b : b + block]
            common_bits = np.zeros((len(ps), len(neg)), count_dtype)
            for w in range(words):
                common_bits += np.bitwise_count(tight[ps, w, None] & neg_words[w])
            pi, mi = np.nonzero(common_bits >= need)
            pp, mm = ps[pi], neg[mi]
            keep = np.empty(len(pp), bool)
            for c in range(0, len(pp), chunk):
                cp, cm = pp[c : c + chunk], mm[c : c + chunk]
                common = tight[cp] & tight[cm]
                # Screen ray k misses the pair when some constraint of
                # common is not tight on k; p and m themselves never miss.
                miss = np.zeros((len(cp), len(screen)), bool)
                for w in range(words):
                    miss |= (common[:, w, None] & not_screen[None, :, w]) != 0
                hits = (~miss).sum(axis=1, dtype=np.int32)
                keep[c : c + chunk] = hits == in_screen[cp] + in_screen[cm]
            kept_p.append(pp[keep])
            kept_m.append(mm[keep])
        p_idx = np.concatenate(kept_p)
        m_idx = np.concatenate(kept_m)
        if len(screen) < held and len(p_idx):
            p_idx, m_idx = _full_adjacency_test(tight, p_idx, m_idx, n)
        new = dots[p_idx, None] * rays[m_idx] - dots[m_idx, None] * rays[p_idx]
        new //= np.maximum(np.gcd.reduce(new, axis=1), 1)[:, None]
        new_tight = tight[p_idx] & tight[m_idx]
        survivors = np.concatenate((pos, zero))
        tight = np.concatenate((tight[survivors], new_tight))
        tight[len(pos) :, word] |= bit
        rays = np.concatenate((rays[survivors], new))
        if len(rays) > max_rays:
            raise CapacityError(
                f"double description exceeded {max_rays} intermediate rays"
                f" at row {idx + 1} of {n}"
            )
        if not len(rays):
            return []
    # Degenerate duplicates cannot arise from adjacent pairs, but stay safe.
    return list(dict.fromkeys(map(tuple, rays.tolist())))


def _full_adjacency_test(tight, pp, mm, n: int):
    """The adjacent pairs among (pp, mm), in order: those with no ray other
    than p and m tight on all of tight[p] & tight[m], decided pair by pair
    on Python-int masks.  Each positive ray keeps the witnesses it has met
    and tries them before the full test."""
    import numpy as np

    held, words = tight.shape
    masks = tight.astype("<u8", copy=False).tobytes()
    size = 8 * words
    ints = [int.from_bytes(masks[i * size : (i + 1) * size], "little") for i in range(held)]
    # Ray bitmask per constraint: which rays are tight on it.  The full test
    # ANDs these columns, which runs at word speed instead of scanning the
    # ray list per pair.  They are the transpose of the tight sets as a 0/1
    # matrix: unpacked, transposed and packed again.
    bits = np.unpackbits(
        np.frombuffer(masks, np.uint8).reshape(held, size), axis=1, bitorder="little"
    )
    packed = np.packbits(bits[:, :n].T, axis=1, bitorder="little").tobytes()
    col_bytes = (held + 7) // 8
    cols = [
        int.from_bytes(packed[j * col_bytes : (j + 1) * col_bytes], "little")
        for j in range(n)
    ]
    everyone = (1 << held) - 1
    adjacent = []
    last = None
    for i, (p, m) in enumerate(zip(pp.tolist(), mm.tolist())):
        if p != last:
            last, tp, witnesses = p, ints[p], []
        common = tp & ints[m]
        # A ray other than p and m that is tight on all of common proves
        # the pair not adjacent; m itself is tight on it.
        for k, not_tk in witnesses:
            if not common & not_tk and k != m:
                break
        else:
            # Rows inserted later are tight on fewer rays, so the highest
            # bits rule out the others soonest.
            others = everyone & ~((1 << p) | (1 << m))
            t = common
            while t and others:
                j = t.bit_length() - 1
                others &= cols[j]
                t ^= 1 << j
            if others:
                k = others.bit_length() - 1
                witnesses.append((k, ~ints[k]))
            else:
                adjacent.append(i)
    return pp[adjacent], mm[adjacent]


# ---------------------------------------------------------------------------
# conversions


def facet_enumeration(v: VPolytope, max_rays: int = 10**6) -> HPolytope:
    """Facets and affine hull of the convex hull of the given vertices.

    Vertices are deduplicated and inserted in lexicographic order.  The valid
    inequalities c0 + c . x >= 0 of the hull form a cone with one constraint
    per vertex; its lineality space is the affine hull and its extreme rays
    are the facets.  One echelon of the homogenized vertices gives both: the
    null space spans the affine hull, the rows span the rest.
    """
    vp = VPolytope.from_points(v.vertices)
    d = vp.dim
    hom, basis, equalities = _affine_hull(vp.vertices)
    eliminate = _eliminate_leads(equalities)
    facets = []
    for y in _cone_rays(hom, basis, max_rays):
        q = _reduced(eliminate, (*(-c for c in y[1:]), y[0]))
        # The trivial inequality 0 <= 1 appears only for one-point hulls,
        # where the affine hull already pins the point.
        if any(q.coeffs):
            facets.append(q)
    return HPolytope(d, tuple(sorted(set(facets))), equalities)


def _affine_hull(
    vertices: Sequence[Sequence[Fraction]],
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], tuple[Equality, ...]]:
    """The homogenized integer rows (1, v) of the vertices, the `_echelon`
    rows that span them, and the equalities of their affine hull."""
    d = len(vertices[0])
    hom = [integerize((1, *vert)) for vert in vertices]
    basis, pivots = _echelon(hom)
    # y0 + y . x = 0 on the hull, i.e. y[1:] . x = -y0
    equalities = _reduce_equalities(
        [(y[1:], -y[0]) for y in _null_space(basis, pivots, d + 1)], d
    )
    return hom, basis, equalities


def adjacency_decomposition(
    v: VPolytope,
    generators: Sequence[tuple[int, ...]],
    max_rays: int = 10**6,
) -> tuple[HPolytope, list[frozenset[LinearInequality]]]:
    """Facets and affine hull of the convex hull of the given vertices, found
    one symmetry orbit at a time (Bremner, Dutour Sikirić and Schürmann,
    arXiv:math/0702239), and the facet orbits the search walked.

    `generators` are coordinate permutations, checked first to map the
    vertex set onto itself (`_check_generators`), so the images of a proved
    facet are facets.  The search starts from a coordinate facet -x_i <= 0
    and raises ValueError when there is none.  For each orbit representative
    F it enumerates F's ridges with `facet_enumeration` on the vertices tight
    on F (`max_rays` bounds each), rotates F across every ridge to the
    neighbouring facet in integer arithmetic, and adds the orbit of each new
    neighbour.  The facet graph is connected, so the orbits found cover every
    facet.  The hull equals `facet_enumeration(v)`'s, and `_check_facets`
    checks it against the vertices.  The orbits, in the order found,
    partition the facets as `facet_orbits` would.
    """
    d = v.dim
    hom, basis, equalities = _affine_hull(v.vertices)
    _check_generators(hom, generators)
    rank = len(basis)
    if rank == 1:
        return HPolytope(d, (), equalities), []
    # The slack of -x_i <= 0 on a homogenized vertex row h is h[i + 1].
    for i in range(d):
        on_face = [h for h in hom if h[i + 1] == 0]
        if min(h[i + 1] for h in hom) >= 0 and len(_echelon(on_face)[1]) == rank - 1:
            break
    else:
        raise ValueError("no coordinate facet -x_i <= 0 to start the search from")
    eliminate = _eliminate_leads(equalities)
    start = _reduced(eliminate, (*(-int(j == i) for j in range(d)), 0))
    orbits = [_orbit(start, generators, equalities)]
    representatives = [start]
    for i, f in enumerate(representatives, 1):
        fs = _exact_product([_slack_row(f)], hom)[0].tolist()
        tight = [vert for vert, sv in zip(v.vertices, fs) if sv == 0]
        off_slacks = [sv for sv in fs if sv > 0]
        off_hom = [h for h, sv in zip(hom, fs) if sv > 0]
        if len(tight) == 1:
            # F is one vertex (v is a segment): its one ridge is the empty
            # face, valid everywhere as 0 <= 1.
            ridges = (LinearInequality((0,) * d, 1),)
        else:
            try:
                ridges = facet_enumeration(VPolytope(d, tuple(tight)), max_rays).inequalities
            except CapacityError as exc:
                raise CapacityError(
                    f"{exc}, in the ridge DD of representative {i}"
                    f" ({len(representatives)} found so far)"
                ) from exc
        ridge_slacks = _exact_product([_slack_row(r) for r in ridges], off_hom)
        for r, rs in zip(ridges, ridge_slacks.tolist()):
            # The neighbour is r + t.F for the least t that keeps every
            # vertex off F feasible: t = max -s_r(v) / s_f(v) over s_f(v) > 0.
            num, den = None, 1
            for sf, sr in zip(off_slacks, rs):
                if num is None or -sr * den > num * sf:
                    num, den = -sr, sf
            g = _reduced(
                eliminate,
                (
                    *(den * a + num * b for a, b in zip(r.coeffs, f.coeffs)),
                    den * r.bound + num * f.bound,
                ),
            )
            if not any(g in o for o in orbits):
                orbits.append(_orbit(g, generators, equalities))
                representatives.append(g)
    facets = sorted(itertools.chain(*orbits))
    _check_facets(v.vertices, facets, representatives, equalities)
    return HPolytope(d, tuple(facets), equalities), orbits


def facet_orbits(
    h: HPolytope, generators: Sequence[tuple[int, ...]]
) -> list[frozenset[LinearInequality]]:
    """Partition h's facets into orbits of the group that the coordinate
    permutations generate, modulo h's (invariant) equalities; ValueError
    unless the facet list is closed under the group."""
    eliminate = _eliminate_leads(h.equalities)
    pool = {
        _reduced(eliminate, integerize((*q.coeffs, q.bound))) for q in h.inequalities
    }
    orbits = []
    while pool:
        seed = min(pool)
        orbits.append(_orbit(seed, generators, h.equalities))
        if not orbits[-1] <= pool:
            raise ValueError("orbit escapes the facet list; input not group-closed")
        pool -= orbits[-1]
    return orbits


def _check_generators(hom, generators) -> None:
    """Raise CertificateError unless each generator permutes the coordinates
    and maps the set of homogenized integer vertex rows (1, v) onto itself;
    gathering h[perm[j] + 1] into j + 1 applies its inverse, which does too."""
    rows, coords = set(hom), list(range(len(hom[0]) - 1))
    for k, perm in enumerate(generators):
        gather = (0, *(j + 1 for j in perm))
        if sorted(perm) != coords or {tuple(h[j] for j in gather) for h in rows} != rows:
            raise CertificateError(f"generator {k} does not map the vertex set onto itself")


def _check_facets(
    vertices: Sequence[Sequence[Fraction]],
    facets: Sequence[LinearInequality],
    representatives: Sequence[LinearInequality],
    equalities: Sequence[Equality],
) -> None:
    """Raise CertificateError unless every facet has a nonnegative integer
    slack on every vertex and every representative is a facet: one of the
    list whose tight vertices span a hyperplane of the hull.  The slacks are
    one exact product of the facet rows and the homogenized vertices.

    Ranks are taken over GF(p) (`_rank_mod_p`), with none of the `_echelon`
    that found the hull; a rank over GF(p) is at most the rational one.  The
    hull's rank is d + 1 - m: the m equalities (`_hull_rank`) bound it from
    above, and the homogenized vertices' rank over GF(p) from below.  A valid row
    with a vertex of positive slack is tight on vertices of rank at most
    d - m, so rank d - m over GF(p) proves it a facet."""
    hom = [integerize((1, *vert)) for vert in vertices]
    rank = _hull_rank(hom, equalities)
    if _rank_mod_p(hom) < rank:
        raise CertificateError("the vertices span more than the equalities allow")
    rows = [_slack_row(q) for q in facets]
    for q, row in zip(facets, rows):
        if any(type(c) is not int for c in row):
            raise CertificateError(f"a facet cuts off a vertex: {q}")
    slacks = _exact_product(rows, hom)
    cut = (slacks < 0).any(axis=1)
    if cut.any():
        q = facets[int(cut.argmax())]
        raise CertificateError(f"a facet cuts off a vertex: {q}")
    listed = {q: i for i, q in enumerate(facets)}
    for q in representatives:
        i = listed.get(q)
        if (
            i is None
            or not (slacks[i] > 0).any()
            or _rank_mod_p([h for h, s in zip(hom, slacks[i]) if s == 0]) < rank - 1
        ):
            raise CertificateError(f"an orbit representative is not a facet: {q}")


_PRIME = 2**31 - 1


def _hull_rank(hom: Sequence[Sequence[int]], equalities: Sequence[Equality]) -> int:
    """d + 1 - m, at least the rank of the homogenized vertex rows `hom`, once
    the m equalities are checked to vanish on them and be independent mod p."""
    eq_rows = [integerize((-rhs, *coeffs)) for coeffs, rhs in equalities]
    if any(_dot(e, h) for e in eq_rows for h in hom) or _rank_mod_p(eq_rows) < len(eq_rows):
        raise CertificateError("the equalities are dependent or miss a vertex")
    return len(hom[0]) - len(eq_rows)


def _rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows over GF(_PRIME), a lower bound on their
    rational rank: each row's residues are reduced by the pivot rows kept so
    far, and kept, scaled to 1 on their first nonzero column, unless 0."""
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        r = [v % _PRIME for v in row]
        for col, pivot in kept:
            if f := r[col]:
                r = [(a - f * b) % _PRIME for a, b in zip(r, pivot)]
        col = next((j for j, v in enumerate(r) if v), None)
        if col is not None:
            inv = pow(r[col], -1, _PRIME)
            kept.append((col, [v * inv % _PRIME for v in r]))
            if len(kept) == len(r):
                break
    return len(kept)


def _slack_row(q: LinearInequality) -> tuple[int | Fraction, ...]:
    """(bound, -coeffs): its dot with a homogenized vertex row (1, v), scaled
    by a positive factor, is bound - coeffs . v scaled by the same factor."""
    return (q.bound, *(-c for c in q.coeffs))


def _orbit(
    seed: LinearInequality,
    generators: Sequence[tuple[int, ...]],
    equalities: Sequence[Equality],
) -> frozenset[LinearInequality]:
    """The images of an inequality under the group that the coordinate
    permutations generate, each reduced modulo the (invariant) equalities.

    A step gathers a row through a generator itself, image[j] = row[perm[j]]:
    as coordinate i moves to perm[i], that is its image under the inverse.
    The inverses generate the same finite group, so the walk reaches the same
    set with no inverse table.  Images go through the `_eliminate_leads` map,
    built once; the walk holds integer rows (coeffs..., bound) to the end."""
    eliminate = _eliminate_leads(equalities)
    gathers = [(*perm, len(perm)) for perm in generators]
    start = (*seed.coeffs, seed.bound)
    orbit = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for gather in gathers:
            img = eliminate([cur[j] for j in gather])
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return frozenset(LinearInequality(row[:-1], row[-1]) for row in orbit)


def vertex_enumeration(h: HPolytope, max_rays: int = 10**6) -> VPolytope:
    """Vertices of a bounded H-polytope (errors out on unbounded input)."""
    d = h.dim
    eq_rows = [[-rhs, *coeffs] for coeffs, rhs in h.equalities]
    ineq_rows = [
        integerize((ineq.bound, *(-c for c in ineq.coeffs))) for ineq in h.inequalities
    ]
    ineq_rows.append((1,) + (0,) * d)  # homogenization: t >= 0

    basis = _null_space(*_echelon(eq_rows), d + 1)
    if not basis:
        return VPolytope(d, ())

    verts = []
    for y in _cone_rays(ineq_rows, basis, max_rays):
        t = y[0]
        if t == 0:
            raise ValueError("polytope is unbounded; vertex enumeration undefined")
        if t < 0:
            raise CertificateError("homogenization constraint violated")
        verts.append(tuple(Fraction(c, t) for c in y[1:]))
    if not verts:
        return VPolytope(d, ())
    return VPolytope.from_points(verts)


def _cone_rays(
    rows: list[tuple[int, ...]],
    basis: list[Sequence[int]],
    max_rays: int,
) -> list[list[int]]:
    """Extreme rays of {y in span(basis) : row . y >= 0 for every row}.

    The rows are restricted to coordinates on the basis, handed to
    `_dd_pointed`, and its rays mapped back to y, each by one exact product.
    """
    rays = _dd_pointed(_exact_product(rows, basis).tolist(), max_rays)
    return _exact_product(rays, list(zip(*basis))).tolist() if rays else []


def _reduce_equalities(eqs: list[Equality], dim: int) -> tuple[Equality, ...]:
    """Independent, canonicalized presentation: the `_echelon` rows of the
    augmented system, primitive `int` rows with a positive leading
    coefficient."""
    rows, pivots = _echelon([[*coeffs, rhs] for coeffs, rhs in eqs])
    if pivots and pivots[-1] == dim:
        raise ValueError("inconsistent equality system")
    return tuple((row[:dim], row[dim]) for row in rows)


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection


def fourier_motzkin_project(
    h: HPolytope,
    keep: Iterable[int],
    max_rows: int = 10**6,
) -> HPolytope:
    """Project onto the coordinates in `keep` (ascending original order).

    Rows are primitive integer tuples (coeffs..., bound) throughout.  The
    equalities are row-reduced once with the eliminated columns ordered first.
    One that pivots on an eliminated column solves for that variable; the
    others carry over to the projection.  One `_eliminate_leads` map over
    all of them substitutes every equality in one pass, which zeroes every
    pivot column: each row is then its canonical form modulo the equalities
    returned, as `reduce_modulo` gives it.  The variables left are
    eliminated one at a time by combining positive and negative rows, which
    keeps the pivot columns zero.  Every step deduplicates the rows and
    checks `max_rows`; redundant rows are removed once, from the final system
    of at most `_PRUNE_ROW_LIMIT` rows (`_prune_redundant`): one feasibility
    LP and one interior-point LP, then each row is kept by ray shooting from
    the interior point or decided by a phase-2-only LP from the slack basis,
    each verdict checked against a certificate in the original coordinates.
    All of it runs on integer rows: local coordinates z over a feasible point
    X / D and primitive integer null-space vectors N, x = (X + N z) / D.
    Against the `Fraction` coordinates x0 + N' z' the LPs scale each z column
    and every right-hand side by a positive constant, so Bland's rule takes
    the same pivots and the duals that prune rows are the same.
    """
    keep = sorted(set(keep))
    if any(i < 0 or i >= h.dim for i in keep):
        raise ValueError("keep indices out of range")
    # Permuted coordinates: the m eliminated columns first, then the kept.
    order = [i for i in range(h.dim) if i not in keep] + keep
    m = h.dim - len(keep)
    reduced = _reduce_equalities(
        [(tuple(c[i] for i in order), r) for c, r in h.equalities], h.dim
    )
    leads = {next(j for j, v in enumerate(c) if v) for c, _ in reduced}
    remaining = [j for j in range(m) if j not in leads]

    permuted = ([*(q.coeffs[i] for i in order), q.bound] for q in h.inequalities)
    eliminate = _eliminate_leads(reduced)
    rows = _tidy_rows(
        (eliminate(integerize(r)) for r in permuted),
        max_rows, m - len(remaining), m,
    )
    while remaining:
        var = min(
            remaining,
            key=lambda v: sum(1 for r in rows if r[v] > 0)
            * sum(1 for r in rows if r[v] < 0),
        )
        remaining.remove(var)
        combined = [r for r in rows if r[var] == 0]
        for rp, rn in itertools.product(
            [r for r in rows if r[var] > 0], [r for r in rows if r[var] < 0]
        ):
            wp, wn = -rn[var], rp[var]
            combined.append(tuple(wp * a + wn * b for a, b in zip(rp, rn)))
        rows = _tidy_rows(combined, max_rows, m - len(remaining), m)

    kept_eqs = tuple((c[m:], r) for c, r in reduced if not any(c[:m]))
    rows = _prune_redundant([(r[m:-1], r[-1]) for r in rows], kept_eqs)
    kept_ineqs = sorted(LinearInequality(c, b) for c, b in rows)
    return HPolytope(len(keep), tuple(kept_ineqs), kept_eqs)


def _tidy_rows(rows, max_rows: int, done: int, m: int) -> list[tuple[int, ...]]:
    """Make each integer row (coeffs..., bound) primitive, deduplicate, drop
    trivial rows, detect infeasibility and check `max_rows`; `done` of the
    `m` variables to eliminate are gone from the rows."""
    out = {}
    for row in rows:
        if not any(row[:-1]):
            if row[-1] < 0:
                raise ValueError("projection of an empty polytope")
            continue
        out[primitive(row)] = None
    if len(out) > max_rows:
        raise CapacityError(
            f"projection exceeded {max_rows} rows ({len(out)} rows after"
            f" eliminating {done} of {m} variables)"
        )
    return list(out)


# Most rows the pruning pass takes: it solves up to one LP over all the rows
# per row.  The tests hand it at most 72 rows, `facets --gpt -x 14` 448 and
# `-x 2 -a 4 -b 4` 55,399.
_PRUNE_ROW_LIMIT = 2000


def _prune_redundant(ineqs, eqs):
    """Drop each (coeffs, bound) row that the rows still kept and the
    equalities imply, in order.  A row is kept by ray shooting when it can
    be, and decided by an exact LP otherwise.  More than `_PRUNE_ROW_LIMIT`
    rows raise CapacityError before the first LP.

    `eqs` are row-reduced, as `_reduce_equalities` returns them.  One
    feasibility LP finds a point x0 of the whole system; without one, every
    row is kept, since no row of an infeasible system is implied by the
    others.  The rest runs on integer rows: x0 = X / D with X integer and
    D > 0, N holds the primitive integer `_null_space` vectors of the
    equalities, and x = (X + N z) / D.  Row j becomes a_j . z <= s_j with
    a_j = c_j N and the scaled slack s_j = D b_j - c_j . X >= 0.

    One more LP looks for a point strictly inside every row
    (`_interior_rays`).  When there is one, row i is shot at from it along
    its normal projected onto the equalities' null space (`_shoot`); a row
    met strictly before every other row left is kept with no LP, by a point
    just past the hit.  Every other row goes to its own LP, which maximizes
    a_i . z over the other rows left and the cap a_i . z <= s_i + D: no
    equalities and no negative right-hand side, so `solve_lp` starts it from
    the slack basis, and the cap bounds it.  A value <= s_i drops the row,
    and the duals on the other rows are checked to imply it
    (`_check_implied`); otherwise the LP's optimum is the witness.  Every
    witness Z / zden is checked, as zden X + N Z over zden D, to meet the
    others and violate row i (`_check_violated`).  Shooting keeps only rows
    that their LP would keep, so the rows kept are the same as with one LP
    per row.

    Against the same LPs over x = x0 + N' z' with the `Fraction` null space
    N', 1 on each free column, each z column is scaled by a positive constant
    and every right-hand side by D.  Bland's entering column reads only
    reduced-cost signs and the ratio test's minimum and ties scale uniformly,
    so each LP pivots through the same bases and returns the same duals; only
    its value scales by D.
    """
    rows = list(ineqs)
    if not rows:
        return rows
    if len(rows) > _PRUNE_ROW_LIMIT:
        raise CapacityError(
            f"FM pruning: {len(rows)} rows, over the limit of {_PRUNE_ROW_LIMIT}"
        )
    d = len(rows[0][0])
    try:
        start = solve_lp([0] * d, ineqs=rows, eqs=eqs)
    except CapacityError as exc:
        raise CapacityError(f"FM pruning start LP: {exc}") from exc
    if start.status is not LpStatus.OPTIMAL:
        return rows
    *xs, den = integerize((*start.x, 1))
    null = _null_space(*_echelon([c for c, _ in eqs]), d)
    local = [(tuple(_dot(c, n) for n in null), den * b - _dot(c, xs)) for c, b in rows]
    center, rays = _interior_rays(local, null)
    idx = 0
    while idx < len(rows):
        others = rows[:idx] + rows[idx + 1 :]
        shot = _shoot(idx, local, center, rays)
        if shot is None:
            a, s = local[idx]
            res = solve_lp(a, ineqs=[*local[:idx], *local[idx + 1 :], (a, s + den)])
            if res.status is not LpStatus.OPTIMAL:
                raise CertificateError("a capped pruning LP has no optimum")
            if res.value <= s:
                _check_implied(rows[idx], others, eqs, res.dual[:-1])
                del rows[idx], local[idx], rays[idx]
                continue
            *z, zden = integerize((*res.x, 1))
        else:
            z, zden = shot
        point = [zden * v + _dot(z, col) for v, col in zip(xs, zip(*null))]
        _check_violated(rows[idx], others, eqs, point, zden * den)
        idx += 1
    return rows


def _interior_rays(local, null):
    """(center, rays) for `_shoot`, from the local rows (a_j, s_j) and the
    null-space vectors N.

    center = (Zc, Dc) with Zc / Dc a point strictly inside every row: it
    maximizes t over a_j . z + t <= s_j and the cap t <= max_j s_j + 1, an LP
    from the slack basis, and is kept only when t > 0; otherwise center is
    None.  On a bounded system some convex combination of the a_j is 0, so the
    cap never binds.  rays[j] = (g_j, d_j) holds row j's gap at the center,
    g_j = Dc s_j - a_j . Zc > 0, and its direction, a positive integer multiple
    of M^-1 a_j with M = N^T N.  M is inverted once, by one `_echelon` of
    [M | I], whose rows are (p_r e_r | p_r M^-1_r) with p_r > 0."""
    k = len(null)
    cap = ((0,) * k + (1,), max(s for _, s in local) + 1)
    res = solve_lp([0] * k + [1], ineqs=[*(((*a, 1), s) for a, s in local), cap])
    if res.status is not LpStatus.OPTIMAL or res.value <= 0:
        return None, [None] * len(local)
    *zc, dc = integerize((*res.x[:-1], 1))
    reduced, _ = _echelon(
        [[_dot(u, v) for v in null] + [int(r == c) for c in range(k)]
         for r, u in enumerate(null)]
    )
    scale = lcm(*(row[r] for r, row in enumerate(reduced)))
    inverse = [[scale // row[r] * v for v in row[k:]] for r, row in enumerate(reduced)]
    rays = [(dc * s - _dot(a, zc), [_dot(row, a) for row in inverse]) for a, s in local]
    return (zc, dc), rays


def _shoot(i, local, center, rays):
    """Row i's witness by ray shooting, or None.

    The ray from the center along d_i meets row j at the step
    g_j / (Dc a_j . d_i) when a_j . d_i > 0, and never otherwise.  Unless row
    i is met strictly before every other row, returns None.  Otherwise
    returns (Z, zden), the point Z / zden halfway between row i's step and
    the next row's, or at twice row i's step when no other row is met: it
    violates row i and meets every other row.  Every comparison
    cross-multiplies integers."""
    if center is None:
        return None
    gi, di = rays[i]
    ei = _dot(local[i][0], di)
    if ei <= 0:  # a_i = 0: no direction to shoot along
        return None
    gn = en = None
    for j, ((a, _), (g, _)) in enumerate(zip(local, rays)):
        e = _dot(a, di)
        if e > 0 and j != i:
            if g * ei <= gi * e:
                return None
            if gn is None or g * en < gn * e:
                gn, en = g, e
    if gn is None:  # a next step three times row i's puts the midpoint at twice it
        gn, en = 3 * gi, ei
    zc, dc = center
    step, half = gi * en + gn * ei, 2 * ei * en  # the midpoint's step times Dc * half
    return [half * c + step * v for c, v in zip(zc, di)], dc * half


def _check_implied(row, others, eqs, y) -> None:
    """Raise CertificateError unless the multipliers y >= 0 on the other
    rows prove the row implied: row - sum_j y_j others_j, less multiples of
    the equalities (each clears its lead column, the row scaled by |lead|),
    is 0 . x <= t with t >= 0.  Decided in integers, y times its lcm denominator."""
    den, (ys,) = over_common_denominator([y])
    if len(y) != len(others) or any(v < 0 for v in ys):
        raise CertificateError("pruning multipliers must be nonnegative")
    combo = [den * v for v in (*row[0], row[1])]
    for v, (c, b) in zip(ys, others):
        if v:
            for j, cj in enumerate((*c, b)):
                combo[j] -= v * cj
    for c, r in eqs:
        e = integerize((*c, r))
        lead = next((j for j, v in enumerate(e[:-1]) if v), None)
        if lead is not None and combo[lead]:
            p, f = abs(e[lead]), combo[lead] if e[lead] > 0 else -combo[lead]
            combo = [p * v - f * ev for v, ev in zip(combo, e)]
    if any(combo[:-1]) or combo[-1] < 0:
        raise CertificateError(f"a pruned row is not implied by the rows kept: {row}")


def _check_violated(row, others, eqs, xs, den) -> None:
    """Raise CertificateError unless den > 0 and the point xs / den meets
    every equality and every other row and violates the row, decided in
    integers on xs and den."""
    if (
        den <= 0
        or any(_dot(c, xs) != r * den for c, r in eqs)
        or any(_dot(c, xs) > b * den for c, b in others)
        or _dot(row[0], xs) <= row[1] * den
    ):
        raise CertificateError(f"a kept row has no witness that violates it: {row}")


# ---------------------------------------------------------------------------
# membership and optimization


def membership(point, polytope: VPolytope) -> MembershipCertificate:
    """Decide whether a point is a convex combination of the vertices.

    Both answers are certified and the certificates are re-checked before
    being returned: convex weights for inside; for outside, a separating
    inequality that `_check_separator` confirms is a facet of the hull (or,
    for a point off the affine hull, one of its equalities).
    """
    q = _as_point(point, polytope.dim)
    verts = polytope.vertices
    if not verts:
        raise ValueError("membership against an empty vertex set")
    # Every row times one D > 0: the same pivots and weights as the rational
    # rows (see `linprog`), and the weights are checked in integers.
    den, (qs, *vs) = over_common_denominator([q, *verts])
    n = len(vs)
    eq_rows = [([v[i] for v in vs], qs[i]) for i in range(polytope.dim)]
    eq_rows.append(([den] * n, den))
    res = solve_lp([0] * n, eqs=eq_rows, nonneg=True)
    if res.status is LpStatus.OPTIMAL:
        wden, (ws,) = over_common_denominator([res.x])
        if any(w < 0 for w in ws) or any(
            _dot(ws, row) != r * wden for row, r in eq_rows
        ):
            raise CertificateError("weights are not a convex mix of the point")
        return MembershipCertificate(inside=True, weights=res.x)
    sep, equalities = _separating_facet(q, VPolytope.from_points(verts).vertices)
    margin = sep.violation(q)
    _check_separator(sep, margin, verts, equalities)
    return MembershipCertificate(inside=False, separator=sep, margin=margin)


def _check_separator(
    sep: LinearInequality, margin: Fraction, verts: Sequence[Sequence[Fraction]],
    equalities: Sequence[Equality],
) -> None:
    """Raise CertificateError unless the point's margin is positive, sep
    holds on every vertex, and sep is either an affine-hull equality of the
    vertices (tight on all of them) or a facet: as in `_check_facets`, the
    vertices tight on it have rank `_hull_rank` - 1 over GF(p)."""
    hom = [integerize((1, *v)) for v in verts]
    rank = _hull_rank(hom, equalities)
    y = _slack_row(sep)
    slacks = [_dot(y, h) for h in hom]
    if margin <= 0 or min(slacks) < 0:
        raise CertificateError("the inequality does not separate the point")
    tight = [h for h, s in zip(hom, slacks) if s == 0]
    if len(tight) < len(hom) and _rank_mod_p(tight) < rank - 1:
        raise CertificateError(f"the separator is not a facet of the hull: {sep}")


def _separating_facet(
    q: tuple[Fraction, ...], verts: Sequence[tuple[Fraction, ...]]
) -> tuple[LinearInequality, list[Equality]]:
    """A separating hyperplane for q, supporting the hull along a facet, and
    the equalities of the hull's affine hull, for `_check_separator`.

    First tries the affine hull: if q violates an equality, that equality
    (suitably oriented) already separates.  Otherwise it maximizes the
    violation g . q - beta over valid inequalities g . x <= beta normalized
    by beta - g . c = 1 at the centroid c, in polar form.  The `_echelon`
    rows B of the centred vertices span the hull's directions; with
    g = B^T w and beta = g . c + 1 the normalization holds by construction,
    and the LP is

        max w . B(q - c)  s.t.  w . B(v - c) <= 1 for every vertex v,

    scaled by `scale`, the vertex count times their common denominator, to
    integer rows, and its objective by q's common denominator qden too.  It
    has no equality and no negative right-hand side, so `solve_lp` starts it
    from the slack basis, with no phase 1; c is relatively interior, so the
    optimum is bounded, and q is outside iff the optimum exceeds 1
    (`scale` qden after scaling).  A basic optimum is a facet
    with maximal normalized violation (g . q - beta) / (beta - g . c).  When
    several facets tie, the one returned is where Bland's rule ends on this
    LP; a two-phase LP over (g, beta) may end on another of them.
    """
    d = len(q)
    n = len(verts)
    den, ints = over_common_denominator(verts)
    total = tuple(map(sum, zip(*ints)))
    scale = n * den
    centroid = tuple(Fraction(t, scale) for t in total)
    # scale . (v - c) per vertex: positive multiples of the centred vertices
    centered = [tuple(n * x - t for x, t in zip(v, total)) for v in ints]
    basis, pivots = _echelon(centered)
    equalities = [(nvec, _dot(nvec, centroid)) for nvec in _null_space(basis, pivots, d)]
    for nvec, rhs in equalities:
        if (val := _dot(nvec, q)) != rhs:
            s = 1 if val > rhs else -1
            sep = LinearInequality(tuple(s * c for c in nvec), s * rhs)
            return reduce_modulo(sep, ()), equalities
    rows = [([_dot(b, v) for b in basis], scale) for v in centered]
    # qden . scale . (q - c), with qden the denominator of q: the objective
    # times qden > 0, which keeps the pivots and x
    qden, (qs,) = over_common_denominator([q])
    shifted = [scale * qi - qden * t for qi, t in zip(qs, total)]
    res = solve_lp([_dot(b, shifted) for b in basis], ineqs=rows)
    if res.status is not LpStatus.OPTIMAL or res.value <= scale * qden:
        raise CertificateError(
            "separation failed although the membership LP was infeasible"
        )
    g = tuple(_dot(res.x, col) for col in zip(*basis))
    return reduce_modulo(LinearInequality(g, _dot(g, centroid) + 1), ()), equalities


def maximize_linear(
    coeffs: Sequence[Fraction], over: VPolytope, constant: Fraction = _F0
):
    """Exact maximum of coeffs . x + constant over the vertices of a
    VPolytope, with the lexicographically smallest maximizing vertex."""
    if not over.vertices:
        raise ValueError("maximizing over an empty polytope")
    best = best_v = None
    for v in over.vertices:
        val = sum(c * x for c, x in zip(coeffs, v))
        if best is None or val > best or (val == best and v < best_v):
            best, best_v = val, v
    return best + constant, best_v


# ---------------------------------------------------------------------------
# scenario-specific polytopes


@functools.lru_cache(maxsize=None)
def no_signalling_polytope(s: Scenario) -> HPolytope:
    """H-representation of the no-signalling set of a Bell scenario.

    Positivity inequalities plus one normalization equality per context and
    marginal-consistency equalities across contexts, reduced to an
    independent list.
    """
    if s.kind is not Kind.BELL:
        raise ValueError("no-signalling polytopes live in Bell scenarios")
    d = s.dim
    ineqs = []
    for i in range(d):
        coeffs = [0] * d
        coeffs[i] = -1
        ineqs.append(LinearInequality(tuple(coeffs), 0))
    eqs = list(normalization_equalities(s))
    for group in s.marginal_groups:
        for first, second in zip(group, group[1:]):
            coeffs = [0] * d
            for i in first:
                coeffs[i] = 1
            for i in second:
                coeffs[i] = -1
            eqs.append((tuple(coeffs), 0))
    return HPolytope(d, tuple(ineqs), _reduce_equalities(eqs, d))


def normalization_equalities(s: Scenario) -> tuple[Equality, ...]:
    """One probability-sum equality per input context, row-reduced."""
    eqs = []
    for block in s.input_blocks():
        coeffs = [0] * s.dim
        for i in block:
            coeffs[i] = 1
        eqs.append((tuple(coeffs), 1))
    return _reduce_equalities(eqs, s.dim)


def classical_vpolytope(s: Scenario) -> VPolytope:
    """Vertices of the classical (deterministic-strategy) polytope."""
    return VPolytope.from_points(classical_correlations(s))
