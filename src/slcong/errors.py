"""Exception types shared across the package.

``InvalidTable`` subclasses identify which semilattice axiom a raw meet
table violates and carry the first offending elements.
``InternalInconsistency`` and its subclass ``DualityViolation`` signal a
bug in the package; everything else signals a broken precondition of an
individual operation.

Every class pickles to itself with the same message, so an error raised in
a worker process of a split walk reaches the parent intact: a class whose
constructor takes elements, not a message, is rebuilt from them
(``__reduce__``).
"""


class SemilatticeError(Exception):
    pass


class InvalidTable(SemilatticeError):
    """A raw meet table failed validation."""


class NotIdempotent(InvalidTable):
    def __init__(self, x):
        super().__init__(f"meet({x},{x}) != {x}")
        self.element = x

    def __reduce__(self):
        return type(self), (self.element,)


class NotCommutative(InvalidTable):
    def __init__(self, x, y):
        super().__init__(f"meet({x},{y}) != meet({y},{x})")
        self.pair = (x, y)

    def __reduce__(self):
        return type(self), self.pair


class NotAssociative(InvalidTable):
    def __init__(self, x, y, z):
        super().__init__(f"meet(meet({x},{y}),{z}) != meet({x},meet({y},{z}))")
        self.triple = (x, y, z)

    def __reduce__(self):
        return type(self), self.triple


class NoLeastAtZero(InvalidTable):
    def __init__(self, x):
        super().__init__(f"meet(0,{x}) != 0, element 0 is not the least element")
        self.element = x

    def __reduce__(self):
        return type(self), (self.element,)


class MalformedTable(InvalidTable):
    """Shape or range problems that precede the axiom checks."""


class ArgumentIsZero(SemilatticeError):
    pass


class NotComparable(SemilatticeError):
    pass


class UnknownName(SemilatticeError):
    pass


class SizeMismatch(SemilatticeError):
    pass


class TooLarge(SemilatticeError):
    pass


class TooManyUbtas(SemilatticeError):
    pass


class NotACongruence(SemilatticeError):
    pass


class NotALattice(SemilatticeError):
    pass


class ContainsZero(SemilatticeError):
    pass


class NotJoinClosed(SemilatticeError):
    pass


class NotQuasiTree(SemilatticeError):
    pass


class NotConvexSubsemilattice(SemilatticeError):
    pass


class NotEnoughValues(SemilatticeError):
    pass


class InternalInconsistency(SemilatticeError):
    """Two routes inside the package disagreed: a bug, never bad input."""


class DualityViolation(InternalInconsistency):
    """``verify_duality`` found the dual correspondence broken."""
