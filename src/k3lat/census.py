"""Degree-d polarization census: unbounded orbit families, twistor class
counting, (-2)-class detection and Fourier-Mukai partner counts.

The centrepiece builds, for a prime p = 3 mod 4 and odd cube-free p*d0, a
certificate that one rank-3 lattice carries h(-p) distinguished vectors of
square 4*d0 whose orthogonal complements realize the h pairwise distinct
oriented form classes of discriminant -p.  The chain: the h form classes lie
in one genus (squares fill the class group), their rank-3 extensions by a
(-d0)-vector are isometric (indefinite ternary, odd cube-free determinant),
and the complements of the distinguished vectors recover the original binary
forms.  Forgetting orientations merges each mirror pair of classes, and the
merged records are what separate full orthogonal-group orbits; certificates
carry both counts.  A certificate stores only p, d0, its height bound and
its witnesses, derives the rest from them (records read off the reduced
forms), and a document is read by rebuilding it and comparing the two
field by field; verify_certificate tests each witness's Gram matrix.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from . import HEIGHT_BOUND, SCHEMA, arith
from .enumeration import (EmbeddingMatrix, OrbitInvariant, level_walk,
                          vectors_of_norm, _bounded_norm_vectors)
from .forms import class_group, form_to_lattice
from .formulas import CensusError, fm_partner_count, tau  # the last two re-exported
from .genus import same_genus
from .lattice import Lattice, Vector, _gram_json, _integers


class TwistorCount(arith.Record):
    count: int
    representatives: tuple[Vector, ...]


def count_integral_twistor_classes(pos: Lattice, d: int) -> TwistorCount:
    """Number of square-d classes in a definite rank <= 3 lattice, up to sign.

    Antipodal vectors give the same twistor parameter (a class determines the
    fibre only up to complex conjugation), so pairs are counted once.
    """
    (d,) = _integers((d,))
    if d <= 0:
        raise CensusError("d must be positive")
    if pos.rank > 3:
        raise CensusError("rank must be at most 3")
    if not pos.is_positive_definite():
        raise CensusError("lattice must be positive definite")
    vecs = vectors_of_norm(pos, d)
    reps = tuple(v for v in vecs if v > tuple(-x for x in v))
    assert 2 * len(reps) == len(vecs)
    return TwistorCount(len(reps), reps)


class MinusTwoResult(arith.Record):
    """Outcome of a (-2)-class check.

    certified is True when the answer is proven (by the mod-4 congruence,
    by a positive semidefinite form or by an explicit witness); a
    bound-limited miss leaves found False and certified False.
    """

    found: bool
    certified: bool
    witness: Vector | None = None


def has_minus_two_class(lat: Lattice, search_bound: int = 6) -> MinusTwoResult:
    """Detect vectors of square -2, certifying absence when norms are 0 mod 4
    or never negative.

    Any twist by a multiple of 4 has every diagonal entry divisible by 4 and
    every off-diagonal entry even, which forces all norms into 4Z, so -2 is
    impossible.  A form without negative LDL^T pivots is positive
    semidefinite, so no vector has negative square.  The search bound must
    be a nonnegative integer.
    """
    (search_bound,) = arith.integers((search_bound,), CensusError)
    if search_bound < 0:
        raise CensusError("search bound must be nonnegative")
    g = lat.gram
    n = lat.rank
    if (all(g[i][i] % 4 == 0 for i in range(n))
            and all(g[i][j] % 2 == 0 for i in range(n) for j in range(i))):
        return MinusTwoResult(False, True)
    if lat._positive(strict=False):
        return MinusTwoResult(False, True)
    hits = _bounded_norm_vectors(lat, -2, search_bound)
    if hits:
        return MinusTwoResult(True, True, hits[0])
    return MinusTwoResult(False, False)


class UnboundedFamilyCertificate(arith.Record):
    """Certified degree-4*d0 family with h(-p) distinct oriented complement
    classes inside one rank-3 ambient lattice free of (-2)-classes.

    A certificate is its parameters and its witnesses W_j: T_j -> T_0, None
    for a gap; the class of T_j is W_j e_3.  The rest is read from the
    family _family(p, d0, height_bound), derived at most once per
    certificate (arith.cached; build and certificate_from_json store theirs).

    height_bound is the largest level the witness walk may reach, a level
    being |z| for the image u = (v, z) of the (-d0)-generator; so every
    class found has |classes[j][2]| <= height_bound.
    """

    p: int
    d0: int
    height_bound: int
    isometry_witnesses: tuple[EmbeddingMatrix | None, ...]

    @arith.cached
    def _derived(self):
        return _family(self.p, self.d0, self.height_bound)

    forms = property(lambda self: self._derived[0])
    ternaries = property(lambda self: self._derived[1])
    ns_lattice = property(lambda self: self._derived[2])
    complement_invariants = property(lambda self: self._derived[3])
    degree = property(lambda self: 4 * self.d0)
    h = property(lambda self: len(self._derived[0]))
    classes = property(lambda self: tuple(
        None if w is None else w.columns[2] for w in self.isometry_witnesses))

    @property
    def witness_gaps(self) -> tuple[int, ...]:
        return tuple(j for j, w in enumerate(self.isometry_witnesses) if w is None)

    @property
    def distinct_orbit_lower_bound(self) -> int:
        """Orbit count certified against the full orthogonal group.

        The h signed records realize the h pairwise non-isomorphic oriented
        complement classes; forgetting orientations merges each mirror pair,
        and only the merged records separate full orthogonal-group orbits.
        """
        return len({inv.unoriented() for inv in self.complement_invariants})


def _family(p: int, d0: int, height_bound: int):
    """Check the parameters of the degree-4*d0 family of p and derive it.

    p must be a prime = 3 mod 4 and d0 positive and odd with p*d0 cube free
    (the ternary classification needs it: Conway and Sloane, SPLAG, ch. 15,
    section 9); p, d0 and height_bound must be ints, the bound at least 1.
    Returns the reduced forms Q_j, the ternaries T_j = Q_j + (-d0), T_0(-4)
    and the records of e_3 in each T_j(-4), read off the reduced form
    f = (a, b, c) of Q_j: (4*d0, 4*Smith(T_j), 4*Smith(Q_j), (8a, 8b, 8c)).
    Scaling a nondegenerate matrix by -4 multiplies each invariant factor
    by 4, so none of them is 1; G e_3 = (0, 0, 4*d0), so e_3^perp is the
    block Q_j(-4) on e_1, e_2, the basis orthogonal_complement returns; and
    8f is reduced as f is.  The second member of a mirror pair (the sorted
    list puts (a, -b, c) before (a, b, c)) reuses its partner's Smith
    tuples: F = diag(1, -1, 1) is unimodular and maps the first ternary
    onto the second, fixing e_3.
    """
    if type(p) is not int or not arith.is_prime(p) or p % 4 != 3:
        raise CensusError("p must be a prime congruent to 3 mod 4")
    if type(d0) is not int or d0 <= 0 or d0 % 2 == 0:
        raise CensusError("d0 must be a positive odd integer")
    if any(e >= 3 for e in arith.factor(p * d0).values()):
        raise CensusError("p*d0 must not be divisible by a cube")
    if type(height_bound) is not int or height_bound < 1:
        raise CensusError("height bound must be positive")
    forms = class_group(-p).elements
    zd0 = Lattice([[-d0]])
    ternaries = tuple(form_to_lattice(f).direct_sum(zd0) for f in forms)
    discs: dict[tuple, tuple] = {}
    invariants = []
    for f, t in zip(forms, ternaries):
        disc = discs.get(_flip(t.gram)) or (tuple(4 * x for x in t._smith),
                                            tuple(4 * x for x in t._block[0]._smith))
        discs[t.gram] = disc
        invariants.append(OrbitInvariant(4 * d0, *disc, tuple(8 * x for x in f.as_tuple())))
    return forms, ternaries, ternaries[0].twist(-4), tuple(invariants)


def _flip(gram):
    """F gram F for F = diag(1, -1, 1) and a symmetric rank-3 Gram.  F is
    unimodular, so the two Grams are isometric; on Q + (-d0) with
    Q = ((2a, b), (b, 2c)) it flips the sign of b."""
    (a, b, c), (_, d, e), (_, _, k) = gram
    return ((a, -b, c), (-b, d, -e), (c, -e, k))


def build_unbounded_family(p: int, d0: int = 1,
                           height_bound: int = HEIGHT_BOUND) -> UnboundedFamilyCertificate:
    """Run the full degree-4*d0 orbit pipeline for a prime p = 3 mod 4.

    One _family call checks the parameters and derives the family.  Build
    adds the witnesses T_j -> T_0 from one level walk over T_0
    (enumeration.level_walk), which stops once every class is reached or
    after level height_bound; a class without a witness is recorded as a
    gap with no ambient class, never faked.  Before returning, build runs
    the checks of verify_certificate on what it assembled.
    """
    family = _family(p, d0, height_bound)
    cert = UnboundedFamilyCertificate(p, d0, height_bound,
                                      level_walk(family[1], family[1][0], height_bound))
    object.__setattr__(cert, "_derived", family)
    _check_claims(cert)
    return cert


def certificate_to_json(cert: UnboundedFamilyCertificate) -> dict:
    """The certificate document.  genus_checks and minus_two_free state, all
    true, the claims that verify_certificate proves."""
    return {
        "schema": SCHEMA,
        "kind": "unbounded_family_certificate",
        "p": cert.p,
        "d0": cert.d0,
        "degree": cert.degree,
        "h": cert.h,
        "forms": [list(f.as_tuple()) for f in cert.forms],
        "ternaries": [_gram_json(t) for t in cert.ternaries],
        "genus_checks": [[True] * cert.h for _ in range(cert.h)],
        "isometry_witnesses": [
            None if w is None else [list(c) for c in w.columns]
            for w in cert.isometry_witnesses],
        "ns_lattice": _gram_json(cert.ns_lattice),
        "classes": [None if a is None else list(a) for a in cert.classes],
        "complement_invariants": [
            {"norm": i.norm, "ambient_disc": list(i.ambient_disc),
             "complement_disc": list(i.complement_disc),
             "complement_class": list(i.complement_class)}
            for i in cert.complement_invariants],
        "minus_two_free": True,
        "witness_gaps": list(cert.witness_gaps),
        "height_bound": cert.height_bound,
    }


# The scalars of the document fields that == compares loosely (it takes 3.0
# for 3 and 1 for true) and their JSON type.  == pins strings, and _family
# and EmbeddingMatrix refuse parameters and witness entries that are not ints.
_flat = chain.from_iterable
_one = lambda v: (v,)
_RECORD_LISTS = itemgetter("ambient_disc", "complement_disc", "complement_class")
_SCALARS = {
    "degree": (int, _one), "h": (int, _one), "forms": (int, _flat),
    "ternaries": (int, lambda v: _flat(_flat(v))), "genus_checks": (bool, _flat),
    "ns_lattice": (int, _flat), "classes": (int, lambda v: _flat(filter(None, v))),
    "complement_invariants": (int, lambda v: chain(
        map(itemgetter("norm"), v), _flat(_flat(map(_RECORD_LISTS, v))))),
    "minus_two_free": (bool, _one), "witness_gaps": (int, iter),
}


def certificate_from_json(doc: dict) -> UnboundedFamilyCertificate:
    """Read a certificate document by rebuilding it from its p, d0,
    height_bound and witnesses (built on the rebuilt ternaries by the
    checking EmbeddingMatrix constructor).  Each key of the rebuilt document
    must equal the document's, by value and then by JSON type; other keys
    are ignored.  Raises CensusError, naming the first field that differs."""
    if (not isinstance(doc, dict) or doc.get("schema") != SCHEMA
            or doc.get("kind") != "unbounded_family_certificate"):
        raise CensusError("not an unbounded-family certificate document")
    try:
        p, d0, height_bound = doc["p"], doc["d0"], doc["height_bound"]
        family = _family(p, d0, height_bound)
        ternaries = family[1]
        if len(doc["isometry_witnesses"]) != len(ternaries):
            raise CensusError("witness count differs from ternary count")
        cert = UnboundedFamilyCertificate(p, d0, height_bound, tuple(
            None if w is None else EmbeddingMatrix(t, ternaries[0], tuple(map(tuple, w)))
            for t, w in zip(ternaries, doc["isometry_witnesses"])))
        object.__setattr__(cert, "_derived", family)
        for key, value in certificate_to_json(cert).items():
            if value != doc[key]:
                raise CensusError(f"{key} differs from the rebuilt certificate")
        for key, (kind, scalars) in _SCALARS.items():
            for x in scalars(doc[key]):
                if type(x) is not kind:
                    raise CensusError(f"{key} differs in JSON type from the rebuilt certificate")
    except CensusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CensusError(f"malformed certificate document: {exc!r}") from exc
    return cert


def verify_certificate(cert: UnboundedFamilyCertificate) -> bool:
    """Recheck every claim of a certificate: the checks of _check_claims on
    its family, then W^T T_0 W = T_j for each witness W (the checking
    EmbeddingMatrix constructor), as one built in memory may hold any
    columns.  This is the only public checker of a certificate.  Raises
    CensusError on the first failed check; returns True otherwise."""
    _check_claims(cert)
    try:
        for t, w in zip(cert.ternaries, cert.isometry_witnesses):
            if w is not None:
                EmbeddingMatrix(t, cert.ternaries[0], w.columns)
    except arith.DomainError as exc:
        raise CensusError(f"witness is not an isometry: {exc}") from None
    return True


def _check_claims(cert: UnboundedFamilyCertificate) -> None:
    """One genus row, each witness's ends, distinct records and the (-2)
    certification; raises CensusError on the first failed check.  The row
    compares the blocks Q_0, Q_j (Lattice._block) of T_j = Q_j + (k): an
    isometry Q_0 -> Q_j over R and every Z_p extends by the identity on (k),
    and a T_j that does not split with T_0's k is refused.  It skips a T_j
    whose flip F T_j F, F = diag(1, -1, 1), is T_0 or an earlier compared
    ternary, as the unimodular F makes the two isometric.  Build's witnesses
    are checked or the identity; verify_certificate tests each one's Gram:
    W^T T_0 W = T_j with equal determinants makes W unimodular, so W e_3 is
    primitive of square 4*d0 in T_0(-4) with the unoriented record of e_3
    in T_j(-4)."""
    ternaries = cert.ternaries
    # One row proves every pair: same_genus(A, B) forces the same odd primes
    # to divide both determinants (a p-adic symbol at p | det has a block of
    # positive scale), so all pairs compare symbols over the same primes, and
    # equality of symbols is transitive.  Q_0 computes its symbols once.
    q0, k = ternaries[0]._block
    in_genus = {ternaries[0].gram}
    for t in ternaries[1:]:
        if _flip(t.gram) in in_genus:
            continue
        block = t._block
        if block is None or block[1] != k or not same_genus(q0, block[0]):
            raise CensusError("genus check does not reproduce")
        in_genus.add(t.gram)
    if len(cert.isometry_witnesses) != len(ternaries):
        raise CensusError("witness count differs from ternary count")
    for t, w in zip(ternaries, cert.isometry_witnesses):
        if w is not None and (w.source, w.target) != (t, ternaries[0]):
            raise CensusError("witness does not map its ternary to the first one")
    if len(set(cert.complement_invariants)) != cert.h:
        raise CensusError("complement invariants are not pairwise distinct")
    m2 = has_minus_two_class(cert.ns_lattice)
    if m2.found or not m2.certified:
        raise CensusError("(-2)-class certification failed")


def write_certificate(cert: UnboundedFamilyCertificate, path) -> None:
    """Serialize a certificate, then reload and re-verify the written file."""
    doc = certificate_to_json(cert)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(path, "r", encoding="utf-8") as fh:
        verify_certificate(certificate_from_json(json.load(fh)))
