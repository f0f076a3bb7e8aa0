"""Edge-space models and perversity-indexed intersection cohomology.

A simple edge space is presented by finite rational cochain complexes
for the link F, the singular stratum B and the regular part M, and a
restriction map ρ: M -> Y to the boundary Y = B ⊗ F of the tube.  Every
model is a product model: the tube is a bundle of truncated cones over
B whose boundary is the product complex Y.  Y is fixed by B and F, so a
model keeps only its dimensions and the matrices ρ_k: M^k -> Y^k in the
bases of ``tensor``; the chain-level reference below builds Y when it
needs it.  Intersection cohomology for a
perversity p is computed at chain level from the total complex of the
cover {M, tube}:

    Tot^s = M^s ⊕ T^s ⊕ Y^(s-1),   D(m, t, y) = (dm, dt, ρm - ιt - dy)

where T = B ⊗ τ_{<=c} F is the cone-truncated tube complex with cutoff

    c = f - 1 - p,

evaluated exactly over the rationals (p may be any rational; the
extended ranges p <= 0 and p >= f are allowed).  A ``Perversity`` is a
``Fraction``, and ``EdgeSpaceModel.effective_cutoff`` is the one place
where p becomes an integer cutoff: floor(c), clamped to [-1, f].  The
degree left open by the usual local truncation table is resolved to
zero; this is the unique choice consistent with the weighted
cone-cohomology dictionary and it preserves Poincare duality for
extended perversities.  One consequence worth knowing: the identity
IH_p = H(M) for non-positive perversities holds for p <= -1, while p in
(-1, 0] still truncates away the top fibre degree.

Working at chain level (rather than chasing dimensions through the
exact sequence) makes the natural maps between perversities honest
chain maps, so their ranks on cohomology are well-defined.

Every answer is a quasi-isomorphism invariant, so it can be read from
the model's minimal model: F' = H(F), B' = H(B) and M' = H(M) with zero
differentials, Y' = B' ⊗ F' and restriction ρ' = (p_B ⊗ p_F) ∘ ρ ∘ i_M,
where i: H -> C picks cocycle representatives and p: C -> H is a chain
map onto cohomology (``cochain.cohomology_inclusion`` and
``cohomology_projection``).  Both come from ``cochain.reduce_complex``,
which cancels pairs of cells of a complex until every differential is
zero; replaying the recorded cancellations backwards from each surviving
cell gives i through the rows they cancel and p through the columns.
The rank table needs only ρ', so it never forms i_M or a ComplexMap: it
builds the rows of p_Y ρ from the rows of p_B and p_F, read from the
reductions of B and F (``Reduction.projection``), and replays M's
cancellations forward on them (``Reduction.on_representatives``), which
is the adjoint of picking representatives.  M, B and F are reduced once
each, and those reductions count the Betti numbers too.

Why the answers agree: let Tot_1(c) be the total complex of M,
B' ⊗ τ_{<=c}F', Y' with restriction (p_B ⊗ p_F) ∘ ρ.  Because
Y = B ⊗ F at chain level (a model holds no other Y, and a Y read from
a record is checked with ``cochain.is_tensor`` and dropped),
p_B ⊗ p_F is a chain map Y -> Y', and it
carries the tube inclusion id_B ⊗ incl to id_B' ⊗ incl'.  So

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
rank of a leading block of rows: the rank of the first t(k, c) rows of
ρ'_k, every t of degree k read from one ``elim.rank_sparse`` pass over
those rows (its ``leading`` ranks).  The map Tot'(c1) -> Tot'(c2) for
c1 <= c2 is injective on the ker A part (M' ⊕ T'_c1 sits inside
M' ⊕ T'_c2) and onto on the coker A part (im A at c1 lies in im A at
c2), so

    rank IH^k_(c1) -> IH^k_(c2) = dim M'^k - r(k, c1) + t(k-1, c2) - r(k-1, c2),

which is the IH formula when c1 = c2.  ``EdgeSpaceModel.rank_table``
holds dim M'^k, t and r for k = 0..n and c = -1..f, built once per
model from the rows of ρ' read as above and the Betti numbers, and with
them the answers: for every pair c1 <= c2 the tuple of these ranks over
k = 0..n (``RankTable.dims``).  ``ih_dims`` and ``ih_map_rank`` read every
answer from it, and so do the queries of ``weights``.
``minimal_model`` builds the minimal model as a model in its own right
(with ρ' as the product p_Y ρ i_M), and ``total_complex``,
``total_map`` and ``truncated_tube`` (on either model) stay as the
chain-level reference; no query builds them, and they are rebuilt on
each call, Y = tensor(B, F) with them, so a model keeps no cache but its
rank table and its minimal model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from edgehodge import elim
from edgehodge.cochain import (
    CochainComplex,
    ComplexMap,
    QMatrix,
    SparseRow,
    ZERO_COMPLEX,
    _brief,
    _sparse,
    _tensor_offsets,
    block_matrix,
    check_cells,
    check_map_shapes,
    cohomology_inclusion,
    cohomology_projection,
    complex_from_dict,
    complex_to_dict,
    direct_sum,
    int_from_json,
    is_tensor,
    maps_from_dict,
    matrix_to_dict,
    mapping_cone,
    tensor,
    tensor_dims,
    tensor_map_blocks,
    tensor_target_commutes,
    truncate,
)
from edgehodge.errors import (
    ModelFormatError,
    ModelInvariantError,
    PerversityRangeError,
)


class Perversity(Fraction):
    """A single rational perversity value at the link codimension f+1.

    It is a ``Fraction``, so it compares, hashes and computes as one;
    arithmetic returns a plain ``Fraction``.  The extended ranges p <= 0
    and p >= f are allowed; half-integer values arise from the
    complete-metric dictionary.
    """

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        """The perversity itself."""
        return self


def weight_cuts(f: int, a) -> tuple[int, int]:
    """(floor(lo), ceil(lo)) for lo = (f - 1)/2 - a = ((f - 1)d - 2n) / 2d,
    a = n/d: the ends of the cone's weight window (lo, lo + 1), which
    every weight decision reads."""
    if not isinstance(a, (int, Fraction)):
        a = Fraction(a)
    num = (f - 1) * a.denominator - 2 * a.numerator
    den = 2 * a.denominator
    return num // den, -(-num // den)


def middle_perversities(f: int) -> tuple[int, int]:
    """Lower and upper middle perversity values at codimension f+1: the
    min and max perversities of the weight 0."""
    if f < 0:
        raise ValueError("link dimension must be nonnegative")
    floor_lo, ceil_lo = weight_cuts(f, 0)
    return f - 1 - floor_lo, f - 1 - ceil_lo


@dataclass(frozen=True)
class RankTable:
    """Every IH and map-rank answer of a model, as ranks of its minimal
    restriction ρ' (see the module notes).

    For k = 0..n and c = -1..f, with column c + 1: ``m_dims[k]`` is
    dim M'^k, ``rows[k][c + 1]`` is t(k, c), the number of rows of Y'^k
    in fibre degrees above c, and ``ranks[k][c + 1]`` is r(k, c), the
    rank of those rows of ρ'_k.  ``dims`` holds the answers, filled by
    ``map_rank`` when the table is made: for each cutoff pair
    -1 <= c1 <= c2 <= f, ``dims[c1, c2]`` is the tuple over k = 0..n of
    the ranks IH^k at c1 -> IH^k at c2, the IH dimensions when c1 == c2.
    """

    m_dims: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    ranks: tuple[tuple[int, ...], ...]
    dims: dict[tuple[int, int], tuple[int, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        n, top = len(self.m_dims), len(self.rows[0]) - 1  # top = f + 1
        object.__setattr__(self, "dims", {
            (c1, c2): tuple(self.map_rank(k, c1, c2) for k in range(n))
            for c1 in range(-1, top) for c2 in range(c1, top)})

    def map_rank(self, k: int, c1: int, c2: int) -> int:
        """Rank of IH^k at cutoff c1 -> IH^k at cutoff c2 >= c1; the IH
        dimension itself when c1 == c2, and 0 above degree n."""
        if k >= len(self.m_dims):
            return 0
        out = self.m_dims[k] - self.ranks[k][c1 + 1]
        if k > 0:
            out += self.rows[k - 1][c2 + 1] - self.ranks[k - 1][c2 + 1]
        return out


class EdgeSpaceModel:
    """Finite presentation of a space with one simple edge stratum: the
    link F, the stratum B, the regular part M and the restriction
    ρ: M -> Y = tensor(B, F), held as its matrices ``rho[k]``:
    M^k -> Y^k (zero past the last) in the bases of ``tensor``.  No Y
    complex is kept, only its dimensions ``y_dims``; ``validate`` checks
    ρ against the rows of d_Y as it generates them from B and F.  A
    ``y`` read from a model record is checked to be the product, ρ is
    checked against its rows, and it is then dropped.
    """

    def __init__(self, name: str, n: int, b: int, f: int,
                 F: CochainComplex, B: CochainComplex, M: CochainComplex,
                 rho, description: str = "", y: CochainComplex | None = None):
        self.name = name
        self.n = n
        self.b = b
        self.f = f
        self.F = F
        self.B = B
        self.M = M
        self.rho = tuple(rho)
        self.y_dims = tensor_dims(B, F)
        self.description = description
        check_map_shapes(self.rho, M.dims, self.y_dims if y is None else y.dims)
        self._table: RankTable | None = None
        self._minimal: EdgeSpaceModel | None = None
        self.validate(y)

    # -- structural invariants ---------------------------------------

    def validate(self, y: CochainComplex | None = None) -> None:
        """Check the model's invariants in a fixed order; the first that
        fails raises ``ModelInvariantError``.  The d∘d and chain-map
        checks accumulate residual rows (``CochainComplex.verify``,
        ``cochain.tensor_target_commutes``) and never build the products,
        nor Y.  A Y read from a record is passed as ``y``: it is compared
        with tensor(B, F) row by row (``is_tensor``), and ρ is checked
        against its rows (``ComplexMap.commutes``) before a Y that is not
        the product is refused."""
        if self.n != self.b + self.f + 1:
            raise ModelInvariantError(f"{self.name}: n != b + f + 1")
        if self.F.top_degree != self.f:
            raise ModelInvariantError(f"{self.name}: top degree of F is not f")
        if self.B.top_degree != self.b:
            raise ModelInvariantError(f"{self.name}: top degree of B is not b")
        if self.M.top_degree > self.n:
            raise ModelInvariantError(f"{self.name}: M has cells above degree n")
        for c in (self.F, self.B, self.M):
            if not c.verify():
                raise ModelInvariantError(f"{self.name}: a complex fails d∘d = 0")
        if y is None:
            if not tensor_target_commutes(self.rho, self.M, self.B, self.F):
                raise ModelInvariantError(f"{self.name}: restriction is not a chain map")
            return
        y_product = is_tensor(y, self.B, self.F)
        if not y_product and not y.verify():
            raise ModelInvariantError(f"{self.name}: a complex fails d∘d = 0")
        if not ComplexMap(self.M, y, self.rho, check=False).commutes():
            raise ModelInvariantError(f"{self.name}: restriction is not a chain map")
        if not y_product:
            raise ModelInvariantError(
                f"{self.name}: Y is not the product complex tensor(B, F)")

    def rho_at(self, k: int) -> QMatrix:
        """ρ_k: M^k -> Y^k, zero past the last matrix."""
        if k < len(self.rho):
            return self.rho[k]
        return QMatrix.zeros(self.y_dims[k] if k < len(self.y_dims) else 0, self.M.dim(k))

    # -- truncated tube and total complex -----------------------------

    def effective_cutoff(self, p) -> int:
        """Integer truncation level in [-1, f] determined by p: the floor
        of f - 1 - p, which is f - 1 + floor(-p)."""
        if not hasattr(p, "denominator"):  # int, Fraction and Perversity have both
            p = Fraction(p)
        return max(-1, min(self.f, self.f - 1 + (-p.numerator) // p.denominator))

    def truncated_tube(self, c: int) -> tuple[CochainComplex, ComplexMap]:
        """Tube complex B ⊗ τ_{<=c}F with its inclusion into Y, which is
        built here as tensor(B, F)."""
        y = tensor(self.B, self.F)
        tf, incl = truncate(self.F, c)
        if not tf.dims:
            return ZERO_COMPLEX, ComplexMap(ZERO_COMPLEX, y, (), check=False)
        tube = tensor(self.B, tf)
        return tube, ComplexMap(tube, y,
                                tensor_map_blocks(ComplexMap.identity(self.B), incl),
                                check=False)

    def total_complex(self, c: int) -> CochainComplex:
        """Mayer-Vietoris total complex for truncation level c."""
        tube, iota = self.truncated_tube(c)
        m, y = self.M, iota.target
        top = max(m.top_degree, tube.top_degree, y.top_degree + 1, 0)
        dims = [m.dim(s) + tube.dim(s) + y.dim(s - 1) for s in range(top + 1)]
        ds = []
        for s in range(top):
            blocks = [
                [m.d_at(s), None, None],
                [None, tube.d_at(s), None],
                [self.rho_at(s), -iota.at(s), -y.d_at(s - 1)],
            ]
            ds.append(block_matrix(
                blocks,
                [m.dim(s + 1), tube.dim(s + 1), y.dim(s)],
                [m.dim(s), tube.dim(s), y.dim(s - 1)],
            ))
        return CochainComplex(dims, ds)

    def total_map(self, c1: int, c2: int) -> ComplexMap:
        """Chain map Tot(c1) -> Tot(c2) for c1 <= c2 (stronger to weaker):
        the identity on M and Y and id_B ⊗ (τ_{<=c1}F -> τ_{<=c2}F) on the
        tube, whose degrees <= c1 are the inclusion's into F."""
        tot1, tot2 = self.total_complex(c1), self.total_complex(c2)
        tube1, iota1 = self.truncated_tube(c1)
        tube2, _ = self.truncated_tube(c2)
        y = iota1.target
        t1, i1 = truncate(self.F, c1)
        fincl = (ComplexMap.identity(t1) if c1 == c2 else
                 ComplexMap(t1, truncate(self.F, c2)[0], i1.maps[: c1 + 1], check=False))
        tmaps = tensor_map_blocks(ComplexMap.identity(self.B), fincl) if tube1.dims else ()
        tincl = ComplexMap(tube1, tube2, tmaps, check=False)
        maps = []
        for s in range(tot1.top_degree + 1):
            blocks = [
                [QMatrix.identity(self.M.dim(s)), None, None],
                [None, tincl.at(s), None],
                [None, None, QMatrix.identity(y.dim(s - 1))],
            ]
            maps.append(block_matrix(
                blocks,
                [self.M.dim(s), tube2.dim(s), y.dim(s - 1)],
                [self.M.dim(s), tube1.dim(s), y.dim(s - 1)],
            ))
        return ComplexMap(tot1, tot2, maps, check=False)

    # -- minimal model ------------------------------------------------

    def _minimal_restriction(self):
        """(F', B', M', ρ'): the cohomology of F, B and M as complexes
        with zero differentials, and the matrices of
        ρ' = (p_B ⊗ p_F) ∘ ρ ∘ i_M from M'^k to (B' ⊗ F')^k."""
        p_b = cohomology_projection(self.B)
        p_f = cohomology_projection(self.F)
        i_m = cohomology_inclusion(self.M)
        p_y = tensor_map_blocks(p_b, p_f)
        rho = [p_y[k] @ (self.rho_at(k) @ i_m.at(k))
               for k in range(min(len(i_m.maps), len(p_y)))]
        return p_f.target, p_b.target, i_m.source, rho

    def rank_table(self) -> RankTable:
        """The table every query reads its answer from (see the module
        notes), built on the first query and kept on the instance.  The
        rows of ρ'_k are those of p_Y,k ρ_k (``_projected_rows``, from the
        rows of ``Reduction.projection`` of B and F) with M's reduction
        replayed on them (``Reduction.on_representatives``), so i_M is
        never formed; one ``elim.rank_sparse`` pass over the rows of ρ'_k
        gives r(k, c) at every cutoff."""
        if self._table is None:
            top = self.n + 1
            p_b, p_f = _projection_rows(self.B, top), _projection_rows(self.F, top)
            b_dims = [self.B.dim(i) for i in range(top)]
            f_dims = [self.F.dim(j) for j in range(top)]
            red = self.M.reduction()
            rows, ranks = [], []
            for k in range(top):
                # rows of Y'^k in fibre degrees above c form the leading
                # blocks (i, k - i) with i < k - c
                prefix = [0]
                for i in range(k + 1):
                    prefix.append(prefix[-1] + len(p_b[i]) * len(p_f[k - i]))
                t_k = tuple(prefix[max(0, k - c)] for c in range(-1, self.f + 1))
                rho_rows = red.on_representatives(k, _projected_rows(
                    p_b, p_f, b_dims, f_dims, self.rho_at(k), k)
                ) if k < len(red.steps) else ()
                rows.append(t_k)
                ranks.append(elim.rank_sparse(rho_rows, t_k) if rho_rows else (0,) * len(t_k))
            m_h = self.M.cohomology_dims()
            m_dims = tuple(m_h[k] if k < len(m_h) else 0 for k in range(top))
            self._table = RankTable(m_dims, tuple(rows), tuple(ranks))
        return self._table

    def minimal_model(self) -> "EdgeSpaceModel":
        """The same space with F, B and M replaced by their cohomology
        and Y by B' ⊗ F' (see the module notes), kept on the instance.
        It is its own minimal model.  Queries read ``rank_table``
        instead; this is the reference view of the same data."""
        if self._minimal is None:
            f_h, b_h, m_h, rho = self._minimal_restriction()
            minimal = EdgeSpaceModel(self.name, self.n, self.b, self.f, f_h, b_h, m_h,
                                     rho, self.description)
            minimal._minimal = minimal
            self._minimal = minimal
        return self._minimal

    def __repr__(self):
        return f"EdgeSpaceModel({self.name!r}, n={self.n}, b={self.b}, f={self.f})"


def _projection_rows(c: CochainComplex, top: int) -> list[tuple[SparseRow, ...]]:
    """The rows of the projection p_j: C^j -> H^j (``Reduction.projection``)
    for j = 0..top-1, one per Betti number; none off the degrees of c."""
    red = c.reduction()
    return [red.projection(j, c.dims[j]).sparse_rows if j < len(c.dims) else ()
            for j in range(top)]


def _projected_rows(p_b, p_f, b_dims, f_dims, rho: QMatrix, k: int) -> list[dict]:
    """The rows of (p_B ⊗ p_F)_k ρ_k, formed one at a time in the bases of
    ``tensor``, from the rows ``p_b[i]`` of p_B,i and ``p_f[j]`` of p_F,j
    and the dimensions ``b_dims[i]`` and ``f_dims[j]`` of B^i and F^j: row
    (α, β) of block (i, k - i) is the sum over the entries
    x = p_B,i[α, a] and y = p_F,k-i[β, c] of x·y times row (a, c) of ρ_k,
    which is row off_i + a·dim F^(k-i) + c.  Zeros are dropped; values
    are left unnormalised for ``Reduction.on_representatives``."""
    rho_rows = rho.sparse_rows
    out = []
    off = 0
    for i in range(k + 1):
        width = f_dims[k - i]
        f_rows = p_f[k - i]
        for alpha in p_b[i]:
            for beta in f_rows:
                acc: dict = {}
                get = acc.get
                for a, x in alpha.items():
                    base = off + a * width
                    for c, y in beta.items():
                        xy = x * y
                        for j, z in rho_rows[base + c].items():
                            acc[j] = get(j, 0) + xy * z
                out.append({j: v for j, v in acc.items() if v})
        off += b_dims[i] * width
    return out


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

    dims[k] = sum over i+j=k, j <= f-1-p of betti(B)[i] * betti(F)[j],
    which is t(k, -1) - t(k, c) of ``space.rank_table()`` at the cutoff c
    of p: all rows of Y'^k less those in fibre degrees above c.
    """
    c = space.effective_cutoff(p)
    return tuple(rows[0] - rows[c + 1] for rows in space.rank_table().rows)


def ih_dims(space: EdgeSpaceModel, p) -> tuple[int, ...]:
    """Graded intersection cohomology of the space at perversity p, in
    degrees 0..n.

    The answer ``dims[c, c]`` of ``space.rank_table()`` at the cutoff c
    of p: dim M'^s - r(s, c) + t(s-1, c) - r(s-1, c) (see the module
    notes), which equals the cohomology of the chain-level total complex
    ``space.total_complex(c)``.
    """
    c = space.effective_cutoff(p)
    return space.rank_table().dims[c, c]


def ih_map_rank(space: EdgeSpaceModel, p_src, p_tgt, k: int) -> int:
    """Rank of the natural map IH^k_{p_src} -> IH^k_{p_tgt}.

    Requires p_src >= p_tgt, i.e. the source truncation is contained in
    the target truncation, and k >= 0; both are checked before the rank
    table is read.  The answer is degree k of ``dims[c_src, c_tgt]``, 0
    above degree n.
    """
    if Fraction(p_src) < Fraction(p_tgt):
        raise PerversityRangeError(
            "incompatible perversity order: need p_src >= p_tgt"
        )
    if k < 0:
        raise ValueError("degree must be nonnegative")
    dims = space.rank_table().dims[space.effective_cutoff(p_src),
                                   space.effective_cutoff(p_tgt)]
    return dims[k] if k < len(dims) else 0


def extended_identities(space: EdgeSpaceModel, p) -> tuple[int, ...]:
    """Extended-range identities: H(M) for p <= 0, relative cohomology of
    (X, singular stratum) via the cone of restriction for p >= f.

    The relative branch agrees with ih_dims for every p >= f.  The
    absolute branch agrees for p <= -1; at p in (-1, 0] the engine's
    truncation still removes the top fibre degree (see module notes).
    """
    pv = Fraction(p)
    if pv >= space.f:
        cone = mapping_cone(ComplexMap(space.M, tensor(space.B, space.F), space.rho,
                                       check=False))
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


def interval_complex() -> CochainComplex:
    """Interval: two vertices, one edge (contractible)."""
    return CochainComplex((2, 1), [QMatrix(1, 2, [[-1, 1]])])


def sphere2_complex() -> CochainComplex:
    """Minimal rational model of the 2-sphere."""
    return CochainComplex((1, 0, 1), [QMatrix.zeros(0, 1), QMatrix.zeros(1, 0)])


def torus_complex() -> CochainComplex:
    c = circle_complex()
    return tensor(c, c)


def _cone_model(name: str, fibre: CochainComplex, description: str) -> EdgeSpaceModel:
    """Truncated cone over the fibre: one point stratum, boundary at x=1.
    M is point ⊗ fibre, which is Y, and ρ the identity."""
    m_cx = tensor(point_complex(), fibre)
    f = fibre.top_degree
    return EdgeSpaceModel(name, f + 1, 0, f, fibre, point_complex(), m_cx,
                          [QMatrix.identity(d) for d in m_cx.dims], description)


def _diagonal_restriction(base: CochainComplex, fibre: CochainComplex) -> list[QMatrix]:
    """ρ = diag ⊗ id: base ⊗ F -> (base ⊕ base) ⊗ F with diag(x) = (x, x),
    written straight as selection rows: row (a, b) of block (i, n-i) of
    Y^n has one entry, 1, at column off_i + (a mod dim base^i)·dim F^(n-i)
    + b of M^n, with off_i the offset of block (i, n-i) in M^n."""
    maps = []
    for off in _tensor_offsets(base, fibre):
        n = len(off) - 2
        rows: list[SparseRow] = []
        for i in range(n + 1):
            width, dim = fibre.dim(n - i), base.dim(i)
            for a in range(2 * dim):
                start = off[i] + (a % dim) * width
                rows.extend({start + b: 1} for b in range(width))
        maps.append(_sparse(len(rows), off[-1], tuple(rows)))
    return maps


def _closed_model(name: str, base: CochainComplex, fibre: CochainComplex,
                  description: str) -> EdgeSpaceModel:
    """Fibrewise suspension over the base: two copies of the stratum,
    closed total space, so Poincare duality applies."""
    f = fibre.top_degree
    b = base.top_degree
    return EdgeSpaceModel(name, b + f + 1, b, f, fibre, direct_sum(base, base),
                          tensor(base, fibre), _diagonal_restriction(base, fibre),
                          description)


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
    """The model record, with sparse matrices; it omits Y, which is
    tensor(B, F)."""
    return {
        "name": space.name,
        "n": space.n,
        "b": space.b,
        "f": space.f,
        "F": complex_to_dict(space.F),
        "B": complex_to_dict(space.B),
        "M": complex_to_dict(space.M),
        "restriction": {"maps": [matrix_to_dict(m) for m in space.rho]},
        "bigrading": "product",
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
    """Parse a model record.  Y is optional: the restriction's shapes are
    read against the dimensions of tensor(B, F), which is never built.
    A Y in the record is parsed, so its format errors are reported, and
    handed to ``EdgeSpaceModel.validate``, which checks that it is the
    product and checks the restriction against its rows; the model then
    drops it.  Each complex, and the Y that B and F imply, may have at
    most ``cochain.MAX_COMPLEX_CELLS`` cells; the product is checked
    before Y or the restriction is read.  A record with
    ``"bigrading": "none"`` has no tube to truncate and is refused."""
    if not isinstance(data, dict):
        raise ModelFormatError("a model must be a key/value object")
    f_cx, b_cx, m_cx = (_field(data, k, complex_from_dict) for k in "FBM")
    check_cells(sum(b_cx.dims) * sum(f_cx.dims), "Y = B ⊗ F")
    name = data.get("name", "unnamed")
    description = data.get("description", "")
    for key, value in (("name", name), ("description", description)):
        if not isinstance(value, str):
            raise ModelFormatError(f"{key} must be a string, not {_brief(value)}")
    bigrading = data.get("bigrading", "product")
    if bigrading not in ("product", "none"):
        raise ModelFormatError(
            f'bigrading must be "product" or "none", not {_brief(bigrading)}')
    if bigrading == "none":
        raise ModelInvariantError(f"{name}: missing bigrading; cannot truncate the tube")
    y_cx = _field(data, "Y", complex_from_dict) if "Y" in data else None
    rho = _field(data, "restriction", maps_from_dict, m_cx.dims,
                 tensor_dims(b_cx, f_cx) if y_cx is None else y_cx.dims)
    n, b, f = (int_from_json(data.get(k), k) for k in "nbf")
    return EdgeSpaceModel(name, n, b, f, f_cx, b_cx, m_cx, rho, description, y_cx)
