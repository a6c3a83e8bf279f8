"""Binary quadratic forms: reduction, composition, class groups.

Forms are triples (a, b, c) standing for aX^2 + bXY + cY^2.  The class-group
machinery is restricted to positive definite forms (negative discriminant),
which is all the downstream lattice constructions need.  BinaryForm(...) checks
coefficients where they enter; forms computed from checked ints use _of.
"""

from __future__ import annotations

import math

from . import arith
from .lattice import Lattice, _integers
from .linalg import xgcd

Transform = tuple[tuple[int, int], tuple[int, int]]

IDENTITY_2X2: Transform = ((1, 0), (0, 1))


class FormError(arith.DomainError):
    """A precondition on a binary quadratic form was violated."""


class BinaryForm(arith.Record):
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, x in zip("abc", _integers((self.a, self.b, self.c))):
            object.__setattr__(self, name, x)

    @classmethod
    def _of(cls, a: int, b: int, c: int) -> "BinaryForm":
        f = object.__new__(cls)
        f.__dict__.update(a=a, b=b, c=c)
        return f

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def is_positive_definite(self) -> bool:
        return self.discriminant() < 0 and self.a > 0

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return f"BinaryForm({self.a}, {self.b}, {self.c})"


def matmul2(u: Transform, v: Transform) -> Transform:
    return (
        (u[0][0] * v[0][0] + u[0][1] * v[1][0], u[0][0] * v[0][1] + u[0][1] * v[1][1]),
        (u[1][0] * v[0][0] + u[1][1] * v[1][0], u[1][0] * v[0][1] + u[1][1] * v[1][1]),
    )


def apply_transform(f: BinaryForm, u: Transform) -> BinaryForm:
    """Form g with g(x, y) = f((x, y) mapped through the columns of u)."""
    (p, q), (r, s) = map(_integers, u)
    a = f(p, r)
    c = f(q, s)
    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    return BinaryForm._of(a, b, c)


def _check_forms(*fs) -> None:
    """FormError unless every argument is a BinaryForm."""
    if not all(isinstance(f, BinaryForm) for f in fs):
        raise FormError("form must be a BinaryForm")


def reduce_form(f: BinaryForm):
    """Unique reduced representative of a positive definite form.

    Returns (reduced, transform) where transform has determinant 1 and
    apply_transform(f, transform) == reduced.  Reduced means |b| <= a <= c
    with b >= 0 on the boundary cases |b| = a or a = c.
    """
    _check_forms(f)
    if not f.is_positive_definite():
        raise FormError(f"form {f.as_tuple()} is not positive definite")
    a, b, c = f.a, f.b, f.c
    u = IDENTITY_2X2
    while True:
        # translate b into (-a, a]
        m = (a - b) // (2 * a)
        if m:
            c = a * m * m + b * m + c
            b = b + 2 * a * m
            u = matmul2(u, ((1, m), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            u = matmul2(u, ((0, -1), (1, 0)))
            continue
        break
    if b < 0 and a == c:
        a, b, c = c, -b, a
        u = matmul2(u, ((0, -1), (1, 0)))
    return BinaryForm._of(a, b, c), u


class FormClassGroup(arith.Record):
    """All reduced primitive positive definite forms of one discriminant."""

    discriminant: int
    elements: tuple[BinaryForm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def class_group(d: int) -> FormClassGroup:
    """Class group Cl(d) by the reduced-form scan |b| <= a <= sqrt(|d|/3)."""
    (d,) = _integers((d,))
    if d >= 0:
        raise FormError("discriminant must be negative")
    if d % 4 not in (0, 1):
        raise FormError("discriminant must be 0 or 1 mod 4")
    forms = []
    b = d % 2
    while 3 * b * b <= -d:
        m = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(a, math.gcd(b, c)) == 1:
                    forms.append(BinaryForm._of(a, b, c))
                    if 0 < b < a < c:
                        forms.append(BinaryForm._of(a, -b, c))
            a += 1
        b += 2
    forms.sort(key=BinaryForm.as_tuple)
    return FormClassGroup(d, tuple(forms))


def compose(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Reduced Dirichlet composition of two primitive forms of equal discriminant.

    With s = (b1 + b2)/2 and e = gcd(a1, a2, s) = u a1 + v a2 + w s, the
    composite is (A, B, C) with A = a1 a2 / e^2,
    B = (u a1 b2 + v a2 b1 + w (b1 b2 + D)/2) / e (mod 2A) and
    C = (B^2 - D) / 4A (H. Cohen, A Course in Computational Algebraic Number
    Theory, GTM 138, section 5.4), then reduced.
    """
    _check_forms(f, g)
    d = f.discriminant()
    if d != g.discriminant():
        raise FormError("forms must share a discriminant")
    if d >= 0 or f.a <= 0 or g.a <= 0:
        raise FormError("composition requires positive definite forms")
    if math.gcd(*f.as_tuple()) != 1 or math.gcd(*g.as_tuple()) != 1:
        raise FormError("composition requires primitive forms")
    a1, b1, a2, b2 = f.a, f.b, g.a, g.b
    s = (b1 + b2) // 2
    e1, u1, v1 = xgcd(a1, a2)
    e, x, w = xgcd(e1, s)  # e = (x u1) a1 + (x v1) a2 + w s
    aa = a1 * a2 // (e * e)
    bb = (x * (u1 * a1 * b2 + v1 * a2 * b1) + w * ((b1 * b2 + d) // 2)) // e % (2 * aa)
    cc = (bb * bb - d) // (4 * aa)
    assert (bb * bb - d) % (4 * aa) == 0
    return reduce_form(BinaryForm(aa, bb, cc))[0]


def verify_principal_genus(p: int) -> bool:
    """Whether squaring is onto in Cl(-p), for a prime p = 3 mod 4."""
    (p,) = _integers((p,))
    if not arith.is_prime(p) or p % 4 != 3:
        raise FormError("p must be a prime congruent to 3 mod 4")
    cl = class_group(-p)
    squares = {compose(x, x) for x in cl.elements}
    return squares == set(cl.elements)


def form_to_lattice(f: BinaryForm) -> Lattice:
    """Rank-2 lattice with Gram matrix ((2a, b), (b, 2c)); det = -disc."""
    _check_forms(f)
    return Lattice._of(((2 * f.a, f.b), (f.b, 2 * f.c)))
