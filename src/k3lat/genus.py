"""p-adic genus symbols and the same-genus test.

A symbol is the list of Jordan constituents of the Gram matrix over the
p-adic integers.  At odd primes the constituent data (scale, dimension,
sign) is already canonical; at p = 2 the raw data additionally carries a
type and an oddity and is only well defined up to oddity fusion inside
compartments and sign walking along trains, so the 2-adic symbol is pushed
to the standard canonical representative before comparison.
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


def _jordan_decomposition(gram, p: int):
    """Split a nondegenerate Gram matrix over Z_p into 1x1 and 2x2 pieces.

    Returns (ones, twos): ones is a list of (scale, unit) for diagonal
    pieces u * p^scale; twos (nonempty only for p = 2) lists
    (scale, det_unit) for even unimodular 2x2 pieces scaled by 2^scale.
    The block still to split is a/den with a an integer matrix and den an
    integer prime to p, so valuations are read off a.  A step on a pivot
    p^v w/den divides exactly by p^v (p^2v for a 2x2 piece) and multiplies
    den by w.  Each unit is returned as an integer in its square class
    (w*den for w/den), which keeps its Legendre symbol and, as odd squares
    are 1 mod 8, its residue mod 8.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    den = 1
    idx = list(range(n))
    ones: list[tuple[int, int]] = []
    twos: list[tuple[int, int]] = []

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
        if diag:
            gi = diag[0]
            w = a[gi][gi] // pv
            ones.append((best_v, w * den))
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
        twos.append((best_v, w))
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
    return ones, twos


def _canonical_2adic(blocks: list[list]) -> list[GenusBlock]:
    """Oddity fusion and sign walking, producing the canonical 2-adic symbol.

    blocks: mutable [scale, dim, sign, is_type_I, oddity] sorted by scale.
    Walking moves every negative sign to the front of its train; each walk
    between adjacent train members flips both signs and adds 4 to the oddity
    of every compartment containing either endpoint.
    """
    # compartments: maximal runs of type I constituents at consecutive scales
    compartments: list[list[int]] = []
    i = 0
    while i < len(blocks):
        if blocks[i][3]:
            run = [i]
            while (i + 1 < len(blocks) and blocks[i + 1][3]
                   and blocks[i + 1][0] == blocks[i][0] + 1):
                i += 1
                run.append(i)
            compartments.append(run)
        i += 1

    # oddity fusion: only the compartment total is an invariant
    for comp in compartments:
        total = sum(blocks[k][4] for k in comp) % 8
        for k in comp:
            blocks[k][4] = 0
        blocks[comp[0]][4] = total

    # trains: adjacent constituents whose scales differ by at most 2
    trains: list[list[int]] = []
    for k in range(len(blocks)):
        if trains and blocks[k][0] - blocks[trains[-1][-1]][0] <= 2:
            trains[-1].append(k)
        else:
            trains.append([k])

    for train in trains:
        for pos in range(len(train) - 1, 0, -1):
            k = train[pos]
            if blocks[k][2] == -1:
                prev = train[pos - 1]
                blocks[k][2] = 1
                blocks[prev][2] *= -1
                for comp in compartments:
                    if k in comp or prev in comp:
                        blocks[comp[0]][4] = (blocks[comp[0]][4] + 4) % 8
    return [GenusBlock(scale, dim, sign, "I" if odd_type else "II", oddity)
            for scale, dim, sign, odd_type, oddity in blocks]


def padic_symbol(lat: Lattice, p: int) -> GenusSymbol:
    """Canonical p-adic genus symbol of a nondegenerate lattice."""
    (p,) = _integers((p,))
    if not arith.is_prime(p):
        raise GenusError(f"{p} is not prime")
    if lat.determinant() == 0:
        raise GenusError("degenerate Gram matrix")
    ones, twos = _jordan_decomposition(lat.gram, p)
    if p != 2:
        by_scale: dict[int, list[int]] = {}
        for scale, unit in ones:
            by_scale.setdefault(scale, []).append(unit)
        blocks = []
        for scale in sorted(by_scale):
            units = by_scale[scale]
            prod = 1
            for u in units:
                prod = prod * u % p
            blocks.append(GenusBlock(scale, len(units), _legendre(prod, p)))
        return GenusSymbol(p, tuple(blocks))
    # at p = 2 a unit counts only mod 8: the oddity sums the units, and the
    # sign is + when their product is +-1 mod 8
    data: dict[int, list] = {}
    for scale, unit in ones:
        entry = data.setdefault(scale, [scale, 0, 1, False, 0])
        entry[1] += 1
        entry[2] = entry[2] * unit % 8
        entry[3] = True
        entry[4] = (entry[4] + unit) % 8
    for scale, det_unit in twos:
        entry = data.setdefault(scale, [scale, 0, 1, False, 0])
        entry[1] += 2
        entry[2] = entry[2] * det_unit % 8
    blocks = []
    for scale in sorted(data):
        scale_, dim, det_unit, type_i, oddity = data[scale]
        sign = 1 if det_unit in (1, 7) else -1
        blocks.append([scale_, dim, sign, type_i, oddity])
    return GenusSymbol(2, tuple(_canonical_2adic(blocks)))


def _symbol(lat: Lattice, p: int) -> GenusSymbol:
    """padic_symbol(lat, p), computed at most once per lattice and prime."""
    memo = lat._symbols
    if p not in memo:
        memo[p] = padic_symbol(lat, p)
    return memo[p]


def same_genus(l1: Lattice, l2: Lattice) -> bool:
    """Whether two lattices are isomorphic over R and over every Z_p.

    Compares rank, signature and the canonical symbols at 2 and at every
    prime dividing either determinant; agreement elsewhere is automatic.
    Each lattice keeps the symbols it was compared by, so a lattice compared
    with many others has each of its symbols computed once.
    """
    try:
        s1, s2 = l1.signature(), l2.signature()
    except LatticeError as exc:
        raise GenusError(str(exc)) from exc
    if l1.rank != l2.rank or s1 != s2:
        return False
    d1, d2 = l1.determinant(), l2.determinant()
    primes = {2} | set(arith.factor(abs(d1))) | set(arith.factor(abs(d2)))
    return all(_symbol(l1, p) == _symbol(l2, p) for p in sorted(primes))
