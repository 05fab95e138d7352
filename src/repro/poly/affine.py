"""Quasi-affine expressions.

The schedule trees in the paper are full of expressions such as
``floor(k/32) - 8*floor(k/256)`` (Fig. 6) or ``i - 64*floor(i/64)``
(Fig. 4).  These are *quasi-affine*: integer linear expressions extended
with floor-division by a positive integer constant.  This module provides
an exact, immutable representation with:

* construction helpers (:func:`aff_var`, :func:`aff_const`);
* ring operations (``+``, ``-``, integer ``*``);
* ``floordiv`` / ``mod`` by positive integer constants;
* substitution of variables by other quasi-affine expressions;
* exact evaluation over integer environments;
* exact *interval analysis* over box environments, the workhorse behind
  loop-extent derivation and DMA footprint computation.

Everything is integer arithmetic — no floating point is involved, matching
isl's exact-arithmetic contract.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple, Union

from repro.errors import NonAffineError

IntLike = Union[int, "AffExpr"]


def _floordiv_interval(lo: int, hi: int, divisor: int) -> Tuple[int, int]:
    """Exact interval of ``floor(x/divisor)`` for ``x`` in ``[lo, hi]``."""
    return (lo // divisor, hi // divisor)


class FloorDiv:
    """An atomic term ``floor(arg / divisor)`` with ``divisor > 0``.

    FloorDiv terms are hashable and interned structurally so that
    ``floor(k/32)`` built twice compares and hashes equal, allowing
    expressions to combine like terms exactly.
    """

    __slots__ = ("arg", "divisor", "_hash")

    def __init__(self, arg: "AffExpr", divisor: int) -> None:
        if not isinstance(divisor, int) or divisor <= 0:
            raise NonAffineError(f"floordiv divisor must be a positive int, got {divisor!r}")
        self.arg = arg
        self.divisor = divisor
        self._hash = hash(("floordiv", arg, divisor))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FloorDiv)
            and self.divisor == other.divisor
            and self.arg == other.arg
        )

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.arg.evaluate(env) // self.divisor

    def interval(self, box: Mapping[str, Tuple[int, int]]) -> Tuple[int, int]:
        lo, hi = self.arg.interval(box)
        return _floordiv_interval(lo, hi, self.divisor)

    def variables(self) -> frozenset:
        return self.arg.variables()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"floor(({self.arg})/{self.divisor})"


class AffExpr:
    """An immutable quasi-affine expression.

    Internally a sum ``const + Σ coeffs[v]·v + Σ divs[t]·t`` where each
    ``t`` is a :class:`FloorDiv`.  Zero coefficients are never stored, so
    structural equality coincides with mathematical equality for the
    normal forms this module produces (like terms always combine).
    """

    __slots__ = ("coeffs", "divs", "const", "_hash")

    def __init__(
        self,
        coeffs: Mapping[str, int] = (),
        divs: Mapping[FloorDiv, int] = (),
        const: int = 0,
    ) -> None:
        self.coeffs: Dict[str, int] = {
            v: c for v, c in dict(coeffs).items() if c != 0
        }
        self.divs: Dict[FloorDiv, int] = {
            t: c for t, c in dict(divs).items() if c != 0
        }
        if not isinstance(const, int):
            raise NonAffineError(f"constant must be int, got {const!r}")
        self.const = const
        self._hash = hash(
            (
                tuple(sorted(self.coeffs.items())),
                tuple(sorted(((hash(t), c) for t, c in self.divs.items()))),
                const,
            )
        )

    # -- constructors ---------------------------------------------------

    @staticmethod
    def var(name: str) -> "AffExpr":
        return AffExpr({name: 1})

    @staticmethod
    def constant(value: int) -> "AffExpr":
        return AffExpr(const=value)

    @staticmethod
    def coerce(value: IntLike) -> "AffExpr":
        if isinstance(value, AffExpr):
            return value
        if isinstance(value, int):
            return AffExpr.constant(value)
        raise NonAffineError(f"cannot coerce {value!r} to an affine expression")

    # -- queries ---------------------------------------------------------

    def is_constant(self) -> bool:
        return not self.coeffs and not self.divs

    def constant_value(self) -> int:
        if not self.is_constant():
            raise NonAffineError(f"{self} is not constant")
        return self.const

    def is_single_var(self) -> bool:
        """True for expressions of the exact form ``1·v``."""
        return (
            len(self.coeffs) == 1
            and not self.divs
            and self.const == 0
            and next(iter(self.coeffs.values())) == 1
        )

    def single_var(self) -> str:
        if not self.is_single_var():
            raise NonAffineError(f"{self} is not a bare variable")
        return next(iter(self.coeffs))

    def variables(self) -> frozenset:
        names = set(self.coeffs)
        for t in self.divs:
            names |= t.variables()
        return frozenset(names)

    def coefficient(self, name: str) -> int:
        return self.coeffs.get(name, 0)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: IntLike) -> "AffExpr":
        other = AffExpr.coerce(other)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        divs = dict(self.divs)
        for t, c in other.divs.items():
            divs[t] = divs.get(t, 0) + c
        return AffExpr(coeffs, divs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "AffExpr":
        return self * -1

    def __sub__(self, other: IntLike) -> "AffExpr":
        return self + (-AffExpr.coerce(other))

    def __rsub__(self, other: IntLike) -> "AffExpr":
        return AffExpr.coerce(other) + (-self)

    def __mul__(self, factor: int) -> "AffExpr":
        if isinstance(factor, AffExpr):
            if factor.is_constant():
                factor = factor.const
            elif self.is_constant():
                return factor * self.const
            else:
                raise NonAffineError(
                    f"product of two non-constant expressions: ({self})*({factor})"
                )
        if not isinstance(factor, int):
            raise NonAffineError(f"can only scale by int, got {factor!r}")
        return AffExpr(
            {v: c * factor for v, c in self.coeffs.items()},
            {t: c * factor for t, c in self.divs.items()},
            self.const * factor,
        )

    __rmul__ = __mul__

    def floordiv(self, divisor: int) -> "AffExpr":
        """``floor(self / divisor)`` as a new quasi-affine expression.

        Constants fold; multiples of the divisor distribute exactly
        (``floor((d·e + r)/d) = e + floor(r/d)`` when every coefficient of
        ``e`` is a multiple of ``d``) — this keeps expressions like
        ``floor(256·ko/256)`` in normal form ``ko``.
        """
        if not isinstance(divisor, int) or divisor <= 0:
            raise NonAffineError(f"floordiv divisor must be positive int: {divisor!r}")
        if divisor == 1:
            return self
        if self.is_constant():
            return AffExpr.constant(self.const // divisor)
        # Split off the part whose coefficients are multiples of divisor.
        outer_coeffs: Dict[str, int] = {}
        inner_coeffs: Dict[str, int] = {}
        for v, c in self.coeffs.items():
            if c % divisor == 0:
                outer_coeffs[v] = c // divisor
            else:
                inner_coeffs[v] = c
        outer_divs: Dict[FloorDiv, int] = {}
        inner_divs: Dict[FloorDiv, int] = {}
        for t, c in self.divs.items():
            if c % divisor == 0:
                outer_divs[t] = c // divisor
            else:
                inner_divs[t] = c
        outer_const, inner_const = divmod(self.const, divisor)
        inner = AffExpr(inner_coeffs, inner_divs, inner_const)
        outer = AffExpr(outer_coeffs, outer_divs, outer_const)
        if inner.is_constant():
            return outer + inner.const // divisor
        return outer + AffExpr(divs={FloorDiv(inner, divisor): 1})

    def __floordiv__(self, divisor: int) -> "AffExpr":
        return self.floordiv(divisor)

    def mod(self, divisor: int) -> "AffExpr":
        """``self mod divisor`` as ``self - divisor*floor(self/divisor)``."""
        return self - self.floordiv(divisor) * divisor

    def __mod__(self, divisor: int) -> "AffExpr":
        return self.mod(divisor)

    # -- evaluation / analysis ---------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Exact integer value under a complete environment."""
        try:
            total = self.const + sum(c * env[v] for v, c in self.coeffs.items())
        except KeyError as exc:
            raise NonAffineError(f"unbound variable {exc.args[0]!r} in {self}") from None
        for t, c in self.divs.items():
            total += c * t.evaluate(env)
        return total

    def interval(self, box: Mapping[str, Tuple[int, int]]) -> Tuple[int, int]:
        """Exact value interval when each variable ranges over an interval.

        ``box`` maps variable names to inclusive ``(lo, hi)`` pairs.  The
        result is the exact min/max for pure linear terms and a sound
        (and, for the monotone expressions our transforms produce, exact)
        enclosure for floor-division terms.
        """
        lo = hi = self.const
        for v, c in self.coeffs.items():
            if v not in box:
                raise NonAffineError(f"unbounded variable {v!r} in interval query")
            vlo, vhi = box[v]
            if vlo > vhi:
                raise NonAffineError(f"empty interval for {v!r}: ({vlo}, {vhi})")
            if c >= 0:
                lo += c * vlo
                hi += c * vhi
            else:
                lo += c * vhi
                hi += c * vlo
        for t, c in self.divs.items():
            tlo, thi = t.interval(box)
            if c >= 0:
                lo += c * tlo
                hi += c * thi
            else:
                lo += c * thi
                hi += c * tlo
        return (lo, hi)

    def substitute(self, bindings: Mapping[str, IntLike]) -> "AffExpr":
        """Replace variables by expressions (or ints), renormalising."""
        result = AffExpr.constant(self.const)
        for v, c in self.coeffs.items():
            replacement = AffExpr.coerce(bindings[v]) if v in bindings else AffExpr.var(v)
            result = result + replacement * c
        for t, c in self.divs.items():
            replaced_arg = t.arg.substitute(bindings)
            result = result + replaced_arg.floordiv(t.divisor) * c
        return result

    # -- structural -------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffExpr)
            and self.const == other.const
            and self.coeffs == other.coeffs
            and self.divs == other.divs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AffExpr({self})"

    def __str__(self) -> str:
        parts = []
        for v in sorted(self.coeffs):
            c = self.coeffs[v]
            if c == 1:
                parts.append(f"{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        for t, c in sorted(self.divs.items(), key=lambda item: str(item[0])):
            if c == 1:
                parts.append(str(t))
            elif c == -1:
                parts.append(f"-({t})")
            else:
                parts.append(f"{c}*({t})")
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def aff_var(name: str) -> AffExpr:
    """Shorthand for :meth:`AffExpr.var`."""
    return AffExpr.var(name)


def aff_const(value: int) -> AffExpr:
    """Shorthand for :meth:`AffExpr.constant`."""
    return AffExpr.constant(value)
