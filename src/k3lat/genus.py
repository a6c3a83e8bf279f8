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

from dataclasses import dataclass

from . import arith
from .lattice import Lattice, LatticeError, _integers


class GenusError(arith.DomainError):
    """A precondition of a genus computation was violated."""


@dataclass(frozen=True)
class GenusBlock:
    scale: int
    dim: int
    sign: int
    type: str | None = None   # "I" or "II" at p = 2
    oddity: int | None = None  # mod 8 at p = 2

    def to_json(self) -> dict:
        return {"scale": self.scale, "dim": self.dim, "sign": self.sign,
                "type": self.type, "oddity": self.oddity}


@dataclass(frozen=True)
class GenusSymbol:
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
    scale, filled as each piece splits off: a 1x1 piece u * p^scale, or (at
    p = 2 only) an even unimodular 2x2 piece of determinant unit u scaled by
    2^scale.  dim counts the rank, unit is the product of the u mod p (mod 8
    at p = 2), odd records whether a 1x1 piece occurred and oddity sums the
    1x1 units mod 8.  The block still to split is a/den with a an integer
    matrix and den an integer prime to p, so valuations are read off a.  A
    step on a pivot p^v w/den divides exactly by p^v (p^2v for a 2x2 piece)
    and multiplies den by w.  A 1x1 unit is taken as an integer in its
    square class (w*den for w/den), which keeps its Legendre symbol and, as
    odd squares are 1 mod 8, its residue mod 8.
    """
    mod = 8 if p == 2 else p
    a = [list(row) for row in gram]
    den = 1
    idx = list(range(len(gram)))
    records: dict[int, list] = {}

    while idx:
        best_v = None
        best = None
        for i in idx:
            for j in idx:
                if j < i or a[i][j] == 0:
                    continue
                v = _valuation(a[i][j], p)
                if best_v is None or v < best_v:
                    best_v, best = v, (i, j)
        if best is None:
            raise GenusError("degenerate Gram matrix")
        gi, gj = best
        diag = [i for i in idx if a[i][i] != 0 and _valuation(a[i][i], p) == best_v]
        if not diag and p != 2:
            # off-diagonal minimum at an odd prime: adding row and column gj
            # to gi makes a diagonal entry 2*a_ij + higher, of minimal
            # valuation, because 2 is a unit
            for k in idx:
                a[gi][k] += a[gj][k]
            for k in idx:
                a[k][gi] += a[k][gj]
            diag = [gi]
        pv = p ** best_v
        rec = records.setdefault(best_v, [0, 1, False, 0])
        if diag:
            gi = diag[0]
            w = a[gi][gi] // pv
            u = w * den
            rec[0] += 1
            rec[1] = rec[1] * u % mod
            rec[2] = True
            rec[3] = (rec[3] + u) % 8
            rest = [i for i in idx if i != gi]
            col = {r: a[r][gi] for r in rest}
            for r in rest:
                for s in rest:
                    a[r][s] = a[r][s] * w - col[r] // pv * col[s]
            den *= w
            idx.remove(gi)
            continue
        # p = 2 with the minimum strictly off the diagonal: an even
        # unimodular 2x2 block scaled by 2^best_v splits off
        b11, b12, b22 = a[gi][gi], a[gi][gj], a[gj][gj]
        w = (b11 * b22 - b12 * b12) // (pv * pv)
        rec[0] += 2
        rec[1] = rec[1] * w % 8
        rest = [i for i in idx if i not in (gi, gj)]
        pr = {r: a[r][gi] for r in rest}
        qr = {r: a[r][gj] for r in rest}
        for r in rest:
            for s in rest:
                num = (pr[r] * b22 * pr[s] - pr[r] * b12 * qr[s]
                       - qr[r] * b12 * pr[s] + qr[r] * b11 * qr[s])
                a[r][s] = a[r][s] * w - num // (pv * pv)
        den *= w
        idx.remove(gj)
        idx.remove(gi)
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
