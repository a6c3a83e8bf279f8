"""p-adic genus symbols and the same-genus test.

A symbol is the list of Jordan constituents of the Gram matrix over the
p-adic integers.  At odd primes the constituent data (scale, dimension,
sign) is already canonical; at p = 2 the raw data additionally carries a
type and an oddity and is only well defined up to oddity fusion inside
compartments and sign walking along trains, so the 2-adic symbol is pushed
to the standard canonical representative before comparison (Conway and
Sloane, SPLAG, ch. 15, section 7).  Constituents share a train only where no
two adjacent scales are both type II, a missing scale counting as an empty
type II constituent.  One record per scale, [dim, unit, odd, oddity],
carries each constituent from the Jordan split to the symbol.
"""

from __future__ import annotations

from . import arith
from .lattice import Lattice, LatticeError, _integers


class GenusError(arith.DomainError):
    """A precondition of a genus computation was violated."""


class GenusBlock(arith.Record):
    scale: int
    dim: int
    sign: int
    type: str | None = None   # "I" or "II" at p = 2
    oddity: int | None = None  # mod 8 at p = 2

    def to_json(self) -> dict:
        return {"scale": self.scale, "dim": self.dim, "sign": self.sign,
                "type": self.type, "oddity": self.oddity}


class GenusSymbol(arith.Record):
    prime: int
    blocks: tuple[GenusBlock, ...]

    def to_json(self) -> dict:
        return {"p": self.prime, "blocks": [b.to_json() for b in self.blocks]}


def _valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _legendre(u: int, p: int) -> int:
    """Legendre symbol of an integer prime to the odd prime p."""
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


def _jordan_decomposition(gram, p: int) -> dict[int, list]:
    """Split a nondegenerate Gram matrix over Z_p into 1x1 and 2x2 pieces.

    Returns one record [dim, unit, odd, oddity] per Jordan constituent, by
    scale, filled as each piece splits off: a 1x1 piece u * p^scale, or a
    2x2 piece p^scale times a unimodular block of determinant unit u.  dim
    counts the rank, unit is the product of the u mod p (mod 8 at p = 2),
    odd records whether a 1x1 piece occurred and oddity sums the 1x1 units
    mod 8.  The block still to split is a/den with a an integer matrix and
    den an integer prime to p, so valuations are read off a.  The pivot is an
    entry of least valuation v, diagonal if possible (the first diagonal
    unit, if any, without a valuation scan); else both diagonal entries of
    its 2x2 block B lie deeper, so det B has valuation exactly 2v, at p = 2
    as at odd p.  A step divides exactly by p^(v*dim), multiplies
    den by w = det B / p^(v*dim) and takes u = w * den^dim, an integer in the
    unit's square class, which keeps its Legendre symbol and, as odd squares
    are 1 mod 8, its residue mod 8.
    """
    mod = 8 if p == 2 else p
    a = [list(row) for row in gram]
    den = 1
    idx = list(range(len(gram)))
    records: dict[int, list] = {}

    while idx:
        # a unit on the diagonal has the least key (0, False, r, r) there is;
        # idx is ascending, so the first such r is the one min would take
        for i in idx:
            if a[i][i] % p:
                v, off, j = 0, False, i
                break
        else:
            v, off, i, j = min((_valuation(a[r][s], p), r != s, r, s)
                               for r in idx for s in idx if s >= r and a[r][s])
        dim = 1 + off
        pv = p ** (v * dim)
        b11, b12, b22 = a[i][i], a[i][j], a[j][j]
        if off:
            w = (b11 * b22 - b12 * b12) // pv
            c11, c12, c22 = b22, -b12, b11
        else:
            # adj([b11]) = [1], padded to 2x2 as i == j
            w = b11 // pv
            c11, c12, c22 = 1, 0, 0
        u = w * den ** dim
        rec = records.setdefault(v, [0, 1, False, 0])
        rec[0] += dim
        rec[1] = rec[1] * u % mod
        if not off:
            rec[2] = True
            rec[3] = (rec[3] + u) % 8
        idx = [r for r in idx if r != i and r != j]
        # the rest becomes its Schur complement times w: a_rs * w minus
        # x_r^T adj(B) x_s / p^(v*dim) with x_s = (a_si, a_sj), where
        # adj(B) x_s / p^(v*dim) is integral as every entry has valuation >= v
        z = [((c11 * a[s][i] + c12 * a[s][j]) // pv, (c12 * a[s][i] + c22 * a[s][j]) // pv)
             for s in idx]
        for r in idx:
            y, t = a[r][i], a[r][j]
            for s, (m, n) in zip(idx, z):
                a[r][s] = a[r][s] * w - y * m - t * n
        den *= w
    return records


def _canonical_2adic(records) -> tuple[GenusBlock, ...]:
    """Oddity fusion and sign walking, producing the canonical 2-adic symbol.

    records: (scale, [dim, unit, odd, oddity]) sorted by scale; the sign is
    + when the unit is +-1 mod 8.  A compartment is a maximal run of type I
    constituents at consecutive scales; only its total oddity is an
    invariant.  A train is a maximal run in which, a missing scale counting
    as an empty type II constituent, one of any two adjacent scales is type
    I: constituents at scales s < s' are neighbours in a train when
    s' = s + 1 and either is type I, or s' = s + 2 and both are (Conway and
    Sloane, SPLAG, ch. 15, section 7).  Walking moves every negative sign to
    the front of its train; each walk between neighbours flips both signs
    and adds 4 to the oddity of every compartment containing either one.
    """
    blocks: list[list] = []  # [scale, dim, sign, odd, oddity]
    head: list = []          # first block of each block's compartment
    joined: list[bool] = []  # in the train of the block before
    last, last_odd = -3, False  # nothing before scale 0 is a neighbour
    for scale, (dim, unit, odd, oddity) in records:
        gap = scale - last
        joined.append(gap == 1 and (odd or last_odd) or gap == 2 and odd and last_odd)
        if gap == 1 and odd and last_odd:
            h = head[-1]
            blocks[h][4] = (blocks[h][4] + oddity) % 8
            oddity = 0
        else:
            h = len(blocks) if odd else None
        head.append(h)
        blocks.append([scale, dim, 1 if unit in (1, 7) else -1, odd, oddity])
        last, last_odd = scale, odd
    # a train is a run of consecutive blocks, so each walk is from k to k - 1
    for k in range(len(blocks) - 1, 0, -1):
        if joined[k] and blocks[k][2] == -1:
            blocks[k][2] = 1
            blocks[k - 1][2] *= -1
            for h in {head[k], head[k - 1]} - {None}:
                blocks[h][4] = (blocks[h][4] + 4) % 8
    return tuple(GenusBlock(scale, dim, sign, "I" if odd else "II", oddity)
                 for scale, dim, sign, odd, oddity in blocks)


def padic_symbol(lat: Lattice, p: int) -> GenusSymbol:
    """Canonical p-adic genus symbol of a nondegenerate lattice."""
    (p,) = _integers((p,))
    if not arith.is_prime(p):
        raise GenusError(f"{p} is not prime")
    if lat.determinant() == 0:
        raise GenusError("degenerate Gram matrix")
    records = sorted(_jordan_decomposition(lat.gram, p).items())
    if p == 2:
        return GenusSymbol(2, _canonical_2adic(records))
    return GenusSymbol(p, tuple(GenusBlock(scale, dim, _legendre(unit, p))
                                for scale, (dim, unit, _, _) in records))


def _symbol(lat: Lattice, p: int) -> GenusSymbol:
    """padic_symbol(lat, p), computed at most once per lattice and prime."""
    memo = lat._symbols
    if p not in memo:
        memo[p] = padic_symbol(lat, p)
    return memo[p]


def same_genus(l1: Lattice, l2: Lattice) -> bool:
    """Whether two lattices are isomorphic over R and over every Z_p.

    Compares rank, signature and determinant, then the canonical symbols at
    2 and at every prime dividing the determinant; agreement elsewhere is
    automatic.  Each lattice keeps the symbols it was compared by, so a
    lattice compared with many others has each of its symbols computed once.
    """
    try:
        s1, s2 = l1.signature(), l2.signature()
    except LatticeError as exc:
        raise GenusError(str(exc)) from exc
    d = l1.determinant()
    if l1.rank != l2.rank or s1 != s2 or d != l2.determinant():
        return False
    primes = sorted({2} | set(arith.factor(abs(d))))
    return all(_symbol(l1, p) == _symbol(l2, p) for p in primes)
