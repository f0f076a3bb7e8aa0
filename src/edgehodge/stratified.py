"""Edge-space models and perversity-indexed intersection cohomology.

A simple edge space is presented by finite rational cochain complexes
for the link F, the singular stratum B, the boundary Y of the tube
(identified with B ⊗ F), and the regular part M, together with the
restriction map M -> Y.  Intersection cohomology for a perversity p is
computed at chain level from the total complex of the cover {M, tube}:

    Tot^s = M^s ⊕ T^s ⊕ Y^(s-1),   D(m, t, y) = (dm, dt, ρm - ιt - dy)

where T = B ⊗ τ_{<=c} F is the cone-truncated tube complex with cutoff

    c = f - 1 - p,

evaluated exactly over the rationals (p may be any rational; the
extended ranges p <= 0 and p >= f are allowed).  The degree left open
by the usual local truncation table is resolved to zero; this is the
unique choice consistent with the weighted cone-cohomology dictionary
and it preserves Poincare duality for extended perversities.  One
consequence worth knowing: the identity IH_p = H(M) for non-positive
perversities holds for p <= -1, while p in (-1, 0] still truncates away
the top fibre degree.

Working at chain level (rather than chasing dimensions through the
exact sequence) makes the natural maps between perversities honest
chain maps, so their ranks on cohomology are well-defined.

Every answer is a quasi-isomorphism invariant, so it can be read from
the model's minimal model: F' = H(F), B' = H(B) and M' = H(M) with zero
differentials, Y' = B' ⊗ F' and restriction ρ' = (p_B ⊗ p_F) ∘ ρ ∘ i_M,
where i: H -> C picks cocycle representatives and p: C -> H is a chain
map onto cohomology (``cochain.cohomology_inclusion`` and
``cohomology_projection``).  Both come from ``cochain.reduce_complex``,
which cancels pairs of cells of M (or of the transposes of B and F)
until every differential is zero and then replays the recorded
cancellations backwards from each surviving cell, so i and p cost one
sparse reduction each and never a kernel basis.

Why the answers agree: let Tot_1(c) be the total complex of M,
B' ⊗ τ_{<=c}F', Y' with restriction (p_B ⊗ p_F) ∘ ρ.  Because
Y = B ⊗ F at chain level (``validate`` checks it), p_B ⊗ p_F is a
chain map Y -> Y', and it carries the tube inclusion id_B ⊗ incl to
id_B' ⊗ incl'.  So

    (id_M, p_B ⊗ τp_F, p_B ⊗ p_F): Tot(c) -> Tot_1(c)
    (i_M, id, id):                  Tot'(c) -> Tot_1(c)

are chain maps, where τp_F is p_F on τ_{<=c}F.  Each is a
quasi-isomorphism on every piece of the cover, hence on the total
complex (five lemma on the Mayer-Vietoris sequences).  Both commute
strictly with the maps Tot(c1) -> Tot(c2), which are identities on M
and Y and the truncation inclusion on the tube, so the ranks of those
maps on cohomology agree too.

On the minimal model the sequence collapses to ranks of ρ', which is
the local "truncate the link cohomology" rule of Cheeger-Dai and of
Goresky-MacPherson (Intersection homology II, 1983).  Every
differential is zero, so the tube T'_c = B' ⊗ τ_{<=c}F' is the
coordinate subspace of Y' in fibre degrees <= c, ι_c is a coordinate
inclusion, and the only nonzero part of D is A_s = [ρ'_s | -ι_s] from
M'^s ⊕ T'^s to Y'^s.  Hence

    Z^s = ker A_s ⊕ Y'^(s-1),   B^s = 0 ⊕ im A_(s-1),

and rank A_s = dim T'^s + r(s, c), where r(k, c) is the rank of the
rows of ρ'_k in fibre degrees above c, so dim ker A_s = dim M'^s -
r(s, c).  With t(k, c) = Σ_{i+j=k, j>c} b_i(B) b_j(F) the number of
those rows,

    dim IH^s = dim M'^s - r(s, c) + t(s-1, c) - r(s-1, c).

In the bases of ``tensor`` the rows of Y'^k come in blocks (i, k - i)
with i ascending, so the rows above c are a prefix and r(k, c) is the
rank of a leading block of rows: ``elim.rank_sparse`` of the first
t(k, c) rows of ρ'_k, once per distinct t.  The map Tot'(c1) -> Tot'(c2) for
c1 <= c2 is injective on the ker A part (M' ⊕ T'_c1 sits inside
M' ⊕ T'_c2) and onto on the coker A part (im A at c1 lies in im A at
c2), so

    rank IH^k_(c1) -> IH^k_(c2) = dim M'^k - r(k, c1) + t(k-1, c2) - r(k-1, c2),

which is the IH formula when c1 = c2.  ``EdgeSpaceModel.rank_table``
holds dim M'^k, t and r for k = 0..n and c = -1..f, built once per
model from ρ' and the Betti numbers; ``ih_dims`` and ``ih_map_rank``
read every answer from it.  ``minimal_model`` builds the minimal model
as a model in its own right, and ``total_complex``, ``total_map`` and
``truncated_tube`` (on either model) stay as the chain-level
reference; no query builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from edgehodge import elim
from edgehodge.cochain import (
    CochainComplex,
    ComplexMap,
    QMatrix,
    ZERO_COMPLEX,
    block_matrix,
    cohomology_inclusion,
    cohomology_projection,
    complex_from_dict,
    complex_to_dict,
    direct_sum,
    int_from_json,
    map_from_dict,
    map_to_dict,
    mapping_cone,
    tensor,
    tensor_map_blocks,
    truncate,
)
from edgehodge.errors import (
    ModelFormatError,
    ModelInvariantError,
    PerversityRangeError,
)


class Perversity:
    """A single rational perversity value at the link codimension f+1.

    The extended ranges p <= 0 and p >= f are allowed; half-integer
    values arise from the complete-metric dictionary.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, Perversity):
            self.value = value.value
        else:
            self.value = Fraction(value)

    def __add__(self, other):
        return Perversity(self.value + Fraction(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return Perversity(self.value - Fraction(other))

    def __eq__(self, other):
        return self.value == _pval(other)

    def __le__(self, other):
        return self.value <= _pval(other)

    def __lt__(self, other):
        return self.value < _pval(other)

    def __ge__(self, other):
        return self.value >= _pval(other)

    def __gt__(self, other):
        return self.value > _pval(other)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Perversity({self.value})"


def _pval(p) -> Fraction:
    if isinstance(p, Perversity):
        return p.value
    return Fraction(p)


def middle_perversities(f: int) -> tuple[int, int]:
    """Lower and upper middle perversity values at codimension f+1."""
    if f < 0:
        raise ValueError("link dimension must be nonnegative")
    if f % 2 == 1:
        m = (f - 1) // 2
        return m, m
    return f // 2, f // 2 - 1


def cone_truncation_cutoff(f: int, p) -> Fraction:
    """Highest fibre degree kept by perversity p: degrees k <= f - 1 - p."""
    return Fraction(f - 1) - _pval(p)


def cone_local_ih(f_betti, f: int, p, k: int) -> int:
    """Local intersection cohomology of the cone over a link with the
    given Betti numbers: the fibre class survives iff k <= f - 1 - p."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k >= len(f_betti):
        return 0
    return f_betti[k] if Fraction(k) <= cone_truncation_cutoff(f, p) else 0


@dataclass(frozen=True)
class RankTable:
    """Every IH and map-rank answer of a model, as ranks of its minimal
    restriction ρ' (see the module notes).

    For k = 0..n and c = -1..f, with column c + 1: ``m_dims[k]`` is
    dim M'^k, ``rows[k][c + 1]`` is t(k, c), the number of rows of Y'^k
    in fibre degrees above c, and ``ranks[k][c + 1]`` is r(k, c), the
    rank of those rows of ρ'_k.
    """

    m_dims: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    ranks: tuple[tuple[int, ...], ...]

    def map_rank(self, k: int, c1: int, c2: int) -> int:
        """Rank of IH^k at cutoff c1 -> IH^k at cutoff c2 >= c1; the IH
        dimension itself when c1 == c2, and 0 above degree n."""
        if k >= len(self.m_dims):
            return 0
        out = self.m_dims[k] - self.ranks[k][c1 + 1]
        if k > 0:
            out += self.rows[k - 1][c2 + 1] - self.ranks[k - 1][c2 + 1]
        return out


@dataclass(frozen=True)
class IHReport:
    """Graded intersection cohomology dimensions at one perversity."""

    perversity: Perversity
    dims: tuple[int, ...]


class EdgeSpaceModel:
    """Finite presentation of a space with one simple edge stratum.

    ``Y`` must be the product complex tensor(B, F) (built-ins always
    are); a model without this bigrading cannot feed the truncated-tube
    machinery and is rejected by the perversity engine.
    """

    def __init__(self, name: str, n: int, b: int, f: int,
                 F: CochainComplex, B: CochainComplex,
                 M: CochainComplex, Y: CochainComplex,
                 restriction: ComplexMap,
                 product_bigrading: bool = True,
                 description: str = ""):
        self.name = name
        self.n = n
        self.b = b
        self.f = f
        self.F = F
        self.B = B
        self.M = M
        self.Y = Y
        self.restriction = restriction
        self.product_bigrading = product_bigrading
        self.description = description
        self._ftrunc_cache: dict[int, tuple[CochainComplex, ComplexMap]] = {}
        self._tube_cache: dict[int, tuple[CochainComplex, ComplexMap]] = {}
        self._tot_cache: dict[int, CochainComplex] = {}
        self._map_cache: dict[tuple[int, int], ComplexMap] = {}
        self._table: RankTable | None = None
        self._minimal: EdgeSpaceModel | None = None
        self.validate()

    # -- structural invariants ---------------------------------------

    def validate(self) -> None:
        if self.n != self.b + self.f + 1:
            raise ModelInvariantError(f"{self.name}: n != b + f + 1")
        if self.F.top_degree != self.f:
            raise ModelInvariantError(f"{self.name}: top degree of F is not f")
        if self.B.top_degree != self.b:
            raise ModelInvariantError(f"{self.name}: top degree of B is not b")
        for c in (self.F, self.B, self.M):
            if not c.verify():
                raise ModelInvariantError(f"{self.name}: a complex fails d∘d = 0")
        # the tube inclusion id_B ⊗ incl and the minimal model both read Y
        # in the basis of tensor(B, F), which has d∘d = 0 once B and F do
        y_product = self.product_bigrading and self.Y == tensor(self.B, self.F)
        if not y_product and not self.Y.verify():
            raise ModelInvariantError(f"{self.name}: a complex fails d∘d = 0")
        if self.restriction.source is not self.M and self.restriction.source != self.M:
            raise ModelInvariantError(f"{self.name}: restriction source is not M")
        if self.restriction.target is not self.Y and self.restriction.target != self.Y:
            raise ModelInvariantError(f"{self.name}: restriction target is not Y")
        if not self.restriction.commutes():
            raise ModelInvariantError(f"{self.name}: restriction is not a chain map")
        if self.product_bigrading and not y_product:
            raise ModelInvariantError(
                f"{self.name}: Y is not the product complex tensor(B, F)")

    # -- truncated tube and total complex -----------------------------

    def effective_cutoff(self, p) -> int:
        """Integer truncation level in [-1, f] determined by p: the floor
        of f - 1 - p, which is f - 1 + floor(-p)."""
        v = p.value if isinstance(p, Perversity) else p
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        return max(-1, min(self.f, self.f - 1 + (-v.numerator) // v.denominator))

    def _truncated_fibre(self, c: int) -> tuple[CochainComplex, ComplexMap]:
        """τ_{<=c}F with its inclusion into F."""
        if c not in self._ftrunc_cache:
            self._ftrunc_cache[c] = truncate(self.F, c)
        return self._ftrunc_cache[c]

    def truncated_tube(self, c: int) -> tuple[CochainComplex, ComplexMap]:
        """Tube complex B ⊗ τ_{<=c}F with its inclusion into Y."""
        if not self.product_bigrading:
            raise ModelInvariantError(
                f"{self.name}: missing bigrading; cannot truncate the tube"
            )
        if c not in self._tube_cache:
            tf, incl = self._truncated_fibre(c)
            if not tf.dims:
                tube = ZERO_COMPLEX
                iota = ComplexMap(tube, self.Y, (), check=False)
            else:
                tube = tensor(self.B, tf)
                # id_B ⊗ incl lands in tensor(B, F), which is the model's Y
                iota = ComplexMap(tube, self.Y,
                                  tensor_map_blocks(ComplexMap.identity(self.B), incl),
                                  check=False)
            self._tube_cache[c] = (tube, iota)
        return self._tube_cache[c]

    def total_complex(self, c: int) -> CochainComplex:
        """Mayer-Vietoris total complex for truncation level c."""
        if c not in self._tot_cache:
            tube, iota = self.truncated_tube(c)
            m, y = self.M, self.Y
            top = max(m.top_degree, tube.top_degree, y.top_degree + 1, 0)
            dims = [m.dim(s) + tube.dim(s) + y.dim(s - 1) for s in range(top + 1)]
            ds = []
            for s in range(top):
                blocks = [
                    [m.d_at(s), None, None],
                    [None, tube.d_at(s), None],
                    [self.restriction.at(s), -iota.at(s), -y.d_at(s - 1)],
                ]
                ds.append(block_matrix(
                    blocks,
                    [m.dim(s + 1), tube.dim(s + 1), y.dim(s)],
                    [m.dim(s), tube.dim(s), y.dim(s - 1)],
                ))
            self._tot_cache[c] = CochainComplex(dims, ds)
        return self._tot_cache[c]

    def _truncation_inclusion(self, c1: int, c2: int) -> ComplexMap:
        t1, i1 = self._truncated_fibre(c1)
        t2, _ = self._truncated_fibre(c2)
        if c1 >= min(c2, self.F.top_degree):
            return ComplexMap.identity(t1)
        if not t1.dims:
            return ComplexMap(t1, t2, (), check=False)
        return ComplexMap(t1, t2, i1.maps[: c1 + 1], check=False)

    def total_map(self, c1: int, c2: int) -> ComplexMap:
        """Chain map Tot(c1) -> Tot(c2) for c1 <= c2 (stronger to weaker)."""
        if (c1, c2) not in self._map_cache:
            self._map_cache[c1, c2] = self._build_total_map(c1, c2)
        return self._map_cache[c1, c2]

    def _build_total_map(self, c1: int, c2: int) -> ComplexMap:
        tot1, tot2 = self.total_complex(c1), self.total_complex(c2)
        tube1, _ = self.truncated_tube(c1)
        tube2, _ = self.truncated_tube(c2)
        fincl = self._truncation_inclusion(c1, c2)
        tmaps = tensor_map_blocks(ComplexMap.identity(self.B), fincl) if tube1.dims else ()
        tincl = ComplexMap(tube1, tube2, tmaps, check=False)
        maps = []
        for s in range(tot1.top_degree + 1):
            blocks = [
                [QMatrix.identity(self.M.dim(s)), None, None],
                [None, tincl.at(s), None],
                [None, None, QMatrix.identity(self.Y.dim(s - 1))],
            ]
            maps.append(block_matrix(
                blocks,
                [self.M.dim(s), tube2.dim(s), self.Y.dim(s - 1)],
                [self.M.dim(s), tube1.dim(s), self.Y.dim(s - 1)],
            ))
        return ComplexMap(tot1, tot2, maps, check=False)

    # -- minimal model ------------------------------------------------

    def _minimal_restriction(self):
        """(F', B', M', ρ'): the cohomology of F, B and M as complexes
        with zero differentials, and the matrices of
        ρ' = (p_B ⊗ p_F) ∘ ρ ∘ i_M from M'^k to (B' ⊗ F')^k."""
        if not self.product_bigrading:
            raise ModelInvariantError(
                f"{self.name}: missing bigrading; cannot truncate the tube")
        p_b = cohomology_projection(self.B)
        p_f = cohomology_projection(self.F)
        i_m = cohomology_inclusion(self.M)
        p_y = tensor_map_blocks(p_b, p_f)
        rho = [p_y[k] @ (self.restriction.at(k) @ i_m.at(k))
               for k in range(min(len(i_m.maps), len(p_y)))]
        return p_f.target, p_b.target, i_m.source, rho

    def rank_table(self) -> RankTable:
        """The table every ``ih_dims`` and ``ih_map_rank`` answer is read
        from (see the module notes), built on the first query and kept on
        the instance."""
        if self._table is None:
            f_h, b_h, m_h, rho = self._minimal_restriction()
            rows, ranks = [], []
            for k in range(self.n + 1):
                # rows of Y'^k in fibre degrees above c form the leading
                # blocks (i, k - i) with i < k - c
                prefix = [0]
                for i in range(k + 1):
                    prefix.append(prefix[-1] + b_h.dim(i) * f_h.dim(k - i))
                t_k = tuple(prefix[max(0, k - c)] for c in range(-1, self.f + 1))
                rho_rows = rho[k].sparse_rows if k < len(rho) else ()
                rank_of: dict[int, int] = {}
                for t in t_k:
                    if t not in rank_of:
                        lead = [dict(r) for r in rho_rows[:t] if r]
                        rank_of[t] = elim.rank_sparse(lead) if lead else 0
                rows.append(t_k)
                ranks.append(tuple(rank_of[t] for t in t_k))
            m_dims = tuple(m_h.dim(k) for k in range(self.n + 1))
            self._table = RankTable(m_dims, tuple(rows), tuple(ranks))
        return self._table

    def minimal_model(self) -> "EdgeSpaceModel":
        """The same space with F, B and M replaced by their cohomology
        and Y by B' ⊗ F' (see the module notes), kept on the instance.
        It is its own minimal model.  Queries read ``rank_table``
        instead; this is the reference view of the same data."""
        if self._minimal is None:
            f_h, b_h, m_h, rho = self._minimal_restriction()
            y_h = tensor(b_h, f_h)
            minimal = EdgeSpaceModel(self.name, self.n, self.b, self.f, f_h, b_h, m_h, y_h,
                                     ComplexMap(m_h, y_h, rho, check=False),
                                     description=self.description)
            minimal._minimal = minimal
            self._minimal = minimal
        return self._minimal

    def __repr__(self):
        return f"EdgeSpaceModel({self.name!r}, n={self.n}, b={self.b}, f={self.f})"


def kunneth_convolution(b1, b2) -> tuple[int, ...]:
    """Graded convolution of two Betti sequences."""
    if not b1 or not b2:
        return ()
    out = [0] * (len(b1) + len(b2) - 1)
    for i, x in enumerate(b1):
        for j, y in enumerate(b2):
            out[i + j] += x * y
    return tuple(out)


def tube_ih(space: EdgeSpaceModel, p) -> tuple[int, ...]:
    """Intersection cohomology of the tube: Kunneth with the truncated cone.

    dims[k] = sum over i+j=k, j <= f-1-p of betti(B)[i] * betti(F)[j].
    """
    if not space.product_bigrading:
        raise ModelInvariantError(f"{space.name}: missing bigrading")
    cutoff = cone_truncation_cutoff(space.f, p)
    bb = space.B.cohomology_dims()
    bf = space.F.cohomology_dims()
    out = [0] * (space.n + 1)
    for i, x in enumerate(bb):
        for j, y in enumerate(bf):
            if Fraction(j) <= cutoff and i + j <= space.n:
                out[i + j] += x * y
    return tuple(out)


def ih_dims(space: EdgeSpaceModel, p) -> tuple[int, ...]:
    """Graded intersection cohomology of the space at perversity p, in
    degrees 0..n.

    Read from ``space.rank_table()``: dim M'^s - r(s, c) + t(s-1, c) -
    r(s-1, c) at the cutoff c of p (see the module notes), which equals
    the cohomology of the chain-level total complex
    ``space.total_complex(c)``.
    """
    c = space.effective_cutoff(p)
    table = space.rank_table()
    return tuple(table.map_rank(s, c, c) for s in range(space.n + 1))


def ih_dim(space: EdgeSpaceModel, p, k: int) -> int:
    """Dimension of IH^k_p; 0 above degree n."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    dims = ih_dims(space, p)
    return dims[k] if k < len(dims) else 0


def ih_report(space: EdgeSpaceModel, p) -> IHReport:
    return IHReport(Perversity(p), ih_dims(space, p))


def ih_map_rank(space: EdgeSpaceModel, p_src, p_tgt, k: int) -> int:
    """Rank of the natural map IH^k_{p_src} -> IH^k_{p_tgt}.

    Requires p_src >= p_tgt, i.e. the source truncation is contained in
    the target truncation.
    """
    if _pval(p_src) < _pval(p_tgt):
        raise PerversityRangeError(
            "incompatible perversity order: need p_src >= p_tgt"
        )
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return space.rank_table().map_rank(
        k, space.effective_cutoff(p_src), space.effective_cutoff(p_tgt))


def extended_identities(space: EdgeSpaceModel, p) -> tuple[int, ...]:
    """Extended-range identities: H(M) for p <= 0, relative cohomology of
    (X, singular stratum) via the cone of restriction for p >= f.

    The relative branch agrees with ih_dims for every p >= f.  The
    absolute branch agrees for p <= -1; at p in (-1, 0] the engine's
    truncation still removes the top fibre degree (see module notes).
    """
    pv = _pval(p)
    if pv >= space.f:
        cone = mapping_cone(space.restriction)
        h = cone.cohomology_dims()
    elif pv <= 0:
        h = space.M.cohomology_dims()
    else:
        raise PerversityRangeError(
            "extended identities need p <= 0 or p >= f"
        )
    out = list(h) + [0] * (space.n + 1 - len(h))
    return tuple(out[: space.n + 1])


# ---------------------------------------------------------------------------
# built-in catalogue


def circle_complex() -> CochainComplex:
    """Circle as a CW complex with two vertices and two edges."""
    return CochainComplex((2, 2), [QMatrix(2, 2, [[-1, 1], [-1, 1]])])


def point_complex() -> CochainComplex:
    return CochainComplex((1,), ())


def two_point_complex() -> CochainComplex:
    return CochainComplex((2,), ())


def interval_complex() -> CochainComplex:
    """Interval: two vertices, one edge (contractible)."""
    return CochainComplex((2, 1), [QMatrix(1, 2, [[-1, 1]])])


def sphere2_complex() -> CochainComplex:
    """Minimal rational model of the 2-sphere."""
    return CochainComplex((1, 0, 1), [QMatrix.zeros(0, 1), QMatrix.zeros(1, 0)])


def torus_complex() -> CochainComplex:
    c = circle_complex()
    return tensor(c, c)


def _diagonal_map(base: CochainComplex, doubled: CochainComplex) -> ComplexMap:
    """base -> doubled = base ⊕ base, x -> (x, x)."""
    maps = []
    for k in range(base.top_degree + 1):
        ident = QMatrix.identity(base.dim(k))
        maps.append(block_matrix([[ident], [ident]],
                                 [base.dim(k), base.dim(k)], [base.dim(k)]))
    return ComplexMap(base, doubled, maps, check=False)


def _cone_model(name: str, fibre: CochainComplex, description: str) -> EdgeSpaceModel:
    """Truncated cone over the fibre: one point stratum, boundary at x=1."""
    b_cx = point_complex()
    y = tensor(b_cx, fibre)
    m = y
    restriction = ComplexMap.identity(y)
    f = fibre.top_degree
    return EdgeSpaceModel(name, f + 1, 0, f, fibre, b_cx, m, y, restriction,
                          description=description)


def _closed_model(name: str, base: CochainComplex, fibre: CochainComplex,
                  description: str) -> EdgeSpaceModel:
    """Fibrewise suspension over the base: two copies of the stratum,
    closed total space, so Poincare duality applies."""
    b_cx = direct_sum(base, base)
    y = tensor(b_cx, fibre)
    m = tensor(base, fibre)
    restriction = ComplexMap(
        m, y,
        tensor_map_blocks(_diagonal_map(base, b_cx), ComplexMap.identity(fibre)),
        check=False,
    )
    f = fibre.top_degree
    b = base.top_degree
    return EdgeSpaceModel(name, b + f + 1, b, f, fibre, b_cx, m, y, restriction,
                          description=description)


_BUILDERS = {
    "cone-circle": lambda: _cone_model(
        "cone-circle", circle_complex(),
        "cone over S^1 (point stratum, link S^1, boundary at x=1)"),
    "cone-torus": lambda: _cone_model(
        "cone-torus", torus_complex(),
        "cone over T^2 (point stratum, link T^2, boundary at x=1)"),
    "cone-sphere2": lambda: _cone_model(
        "cone-sphere2", sphere2_complex(),
        "cone over S^2 (point stratum, link S^2, boundary at x=1)"),
    "susp-torus": lambda: _closed_model(
        "susp-torus", point_complex(), torus_complex(),
        "suspension of T^2 (two cone points, closed)"),
    "edge-circle-over-circle": lambda: _closed_model(
        "edge-circle-over-circle", circle_complex(), circle_complex(),
        "S^1 x (suspension of S^1): two circle strata with link S^1, closed"),
    "edge-torus-over-circle": lambda: _closed_model(
        "edge-torus-over-circle", circle_complex(), torus_complex(),
        "S^1 x (suspension of T^2): two circle strata with link T^2, closed"),
}

BUILTIN_NAMES = tuple(_BUILDERS)


def builtin_space(name: str) -> EdgeSpaceModel:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown space {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    return builder()


def catalogue() -> list[dict]:
    out = []
    for name in BUILTIN_NAMES:
        s = builtin_space(name)
        out.append({
            "name": name,
            "n": s.n,
            "b": s.b,
            "f": s.f,
            "description": s.description,
        })
    return out


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(space: EdgeSpaceModel) -> dict:
    return {
        "name": space.name,
        "n": space.n,
        "b": space.b,
        "f": space.f,
        "F": complex_to_dict(space.F),
        "B": complex_to_dict(space.B),
        "M": complex_to_dict(space.M),
        "Y": complex_to_dict(space.Y),
        "restriction": map_to_dict(space.restriction),
        "bigrading": "product" if space.product_bigrading else "none",
        "description": space.description,
    }


def _field(data: dict, key: str, parse, *args):
    """parse(*args, data[key]), naming the field in any format error."""
    if key not in data:
        raise ModelFormatError(f"model has no {key!r} field")
    try:
        return parse(*args, data[key])
    except ModelFormatError as exc:
        raise ModelFormatError(f"{key}: {exc}") from None


def model_from_dict(data: dict) -> EdgeSpaceModel:
    if not isinstance(data, dict):
        raise ModelFormatError("a model must be a key/value object")
    f_cx, b_cx, m_cx, y_cx = (_field(data, k, complex_from_dict) for k in "FBMY")
    restriction = _field(data, "restriction", map_from_dict, m_cx, y_cx)
    n, b, f = (int_from_json(data.get(k), k) for k in "nbf")
    return EdgeSpaceModel(
        data.get("name", "unnamed"),
        n, b, f,
        f_cx, b_cx, m_cx, y_cx, restriction,
        product_bigrading=data.get("bigrading", "product") == "product",
        description=data.get("description", ""),
    )
