"""Affine integer expressions over named symbols.

Loop bounds, array subscripts and guard conditions in the IR are affine
functions of loop variables and program parameters:

    ``3*i + j - 1``  is  ``Affine({"i": 3, "j": 1}, -1)``.

Affine expressions are immutable and hashable, support arithmetic,
substitution and vectorized evaluation over NumPy index grids, which is
what the trace engine uses to turn subscripts into address streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

import numpy as np

from ..errors import IRError

AffineLike = Union["Affine", int, str]


def _as_affine(value: AffineLike) -> "Affine":
    if isinstance(value, Affine):
        return value
    if isinstance(value, (int, np.integer)):
        return Affine({}, int(value))
    if isinstance(value, str):
        return Affine({value: 1}, 0)
    raise IRError(f"cannot interpret {value!r} as an affine expression")


@dataclass(frozen=True)
class Affine:
    """An affine combination ``sum(coeff * symbol) + const``.

    ``terms`` maps symbol name to integer coefficient; zero coefficients are
    dropped on construction so equal functions compare equal.
    """

    terms: Mapping[str, int] = field(default_factory=dict)
    const: int = 0

    def __post_init__(self) -> None:
        cleaned = {s: int(c) for s, c in self.terms.items() if int(c) != 0}
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "const", int(self.const))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const_of(value: int) -> "Affine":
        return Affine({}, int(value))

    @staticmethod
    def var(name: str) -> "Affine":
        return Affine({name: 1}, 0)

    @staticmethod
    def of(value: AffineLike) -> "Affine":
        return _as_affine(value)

    # -- inspection --------------------------------------------------------
    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> int:
        if not self.is_constant:
            raise IRError(f"{self} is not a constant")
        return self.const

    def coeff(self, symbol: str) -> int:
        return self.terms.get(symbol, 0)

    def depends_on(self, symbol: str) -> bool:
        return symbol in self.terms

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: AffineLike) -> "Affine":
        o = _as_affine(other)
        terms = dict(self.terms)
        for s, c in o.terms.items():
            terms[s] = terms.get(s, 0) + c
        return Affine(terms, self.const + o.const)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine({s: -c for s, c in self.terms.items()}, -self.const)

    def __sub__(self, other: AffineLike) -> "Affine":
        return self + (-_as_affine(other))

    def __rsub__(self, other: AffineLike) -> "Affine":
        return _as_affine(other) + (-self)

    def __mul__(self, k: int) -> "Affine":
        if isinstance(k, Affine):
            if k.is_constant:
                k = k.const
            else:
                raise IRError("affine expressions support multiplication by constants only")
        k = int(k)
        return Affine({s: c * k for s, c in self.terms.items()}, self.const * k)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------
    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with integer bindings for every symbol used."""
        total = self.const
        for s, c in self.terms.items():
            try:
                total += c * int(env[s])
            except KeyError as exc:
                raise IRError(f"unbound symbol {s!r} in {self}") from exc
        return total

    def evaluate_vec(self, env: Mapping[str, "np.ndarray | int"]) -> np.ndarray:
        """Evaluate over NumPy grids; broadcasting applies across symbols.

        A unit coefficient multiplies nothing and a zero constant adds
        nothing, so a bare symbol returns its grid itself (callers treat
        the result as read-only) and ``i + 1`` allocates one array.
        """
        total: np.ndarray | int | None = None
        for s, c in self.terms.items():
            if s not in env:
                raise IRError(f"unbound symbol {s!r} in {self}")
            term = env[s] if c == 1 else c * env[s]
            total = term if total is None else total + term
        if total is None:
            return np.asarray(self.const)
        return np.asarray(total + self.const if self.const else total)

    def substitute(self, bindings: Mapping[str, AffineLike]) -> "Affine":
        """Replace symbols with affine expressions (e.g. rename loop vars).

        One pass: every term's contribution accumulates into one dict and
        the result is built once (zero coefficients drop on construction).
        """
        terms: dict[str, int] = {}
        const = self.const
        for s, c in self.terms.items():
            if s not in bindings:
                terms[s] = terms.get(s, 0) + c
                continue
            b = _as_affine(bindings[s])
            const += b.const * c
            for bs, bc in b.terms.items():
                terms[bs] = terms.get(bs, 0) + bc * c
        return Affine(terms, const)

    def rename(self, mapping: Mapping[str, str]) -> "Affine":
        return self.substitute({old: Affine.var(new) for old, new in mapping.items()})

    # -- rendering ---------------------------------------------------------
    def __str__(self) -> str:
        parts: list[str] = []
        for s in sorted(self.terms):
            c = self.terms[s]
            if not parts:
                if c == 1:
                    parts.append(s)
                elif c == -1:
                    parts.append(f"-{s}")
                else:
                    parts.append(f"{c}*{s}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                parts.append(f" {sign} {s}" if mag == 1 else f" {sign} {mag}*{s}")
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                sign = "+" if self.const > 0 else "-"
                parts.append(f" {sign} {abs(self.const)}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine({self})"


def _affine_hash(self: Affine) -> int:
    return hash((tuple(sorted(self.terms.items())), self.const))


# The generated frozen-dataclass __hash__ would hash the terms dict (and
# fail); equality still compares the dicts, consistent with this hash.
Affine.__hash__ = _affine_hash  # type: ignore[method-assign]


_CMP_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

_CMP_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


@dataclass(frozen=True)
class Cmp:
    """A comparison between two affine expressions, used in guards."""

    op: str
    lhs: Affine
    rhs: Affine

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise IRError(f"unknown comparison operator {self.op!r}")
        object.__setattr__(self, "lhs", Affine.of(self.lhs))
        object.__setattr__(self, "rhs", Affine.of(self.rhs))

    @property
    def symbols(self) -> frozenset[str]:
        return self.lhs.symbols | self.rhs.symbols

    def evaluate(self, env: Mapping[str, int]) -> bool:
        return bool(_CMP_OPS[self.op](self.lhs.evaluate(env), self.rhs.evaluate(env)))

    def evaluate_vec(self, env: Mapping[str, "np.ndarray | int"]) -> np.ndarray:
        return _CMP_OPS[self.op](self.lhs.evaluate_vec(env), self.rhs.evaluate_vec(env))

    def negate(self) -> "Cmp":
        return Cmp(_CMP_NEGATION[self.op], self.lhs, self.rhs)

    def substitute(self, bindings: Mapping[str, AffineLike]) -> "Cmp":
        return Cmp(self.op, self.lhs.substitute(bindings), self.rhs.substitute(bindings))

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class And:
    """Conjunction of comparisons (the only connective guards need)."""

    parts: tuple[Cmp, ...]

    def __post_init__(self) -> None:
        flat: list[Cmp] = []
        for p in self.parts:
            if isinstance(p, And):  # pragma: no cover - defensive flattening
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))

    @property
    def symbols(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.symbols
        return out

    def evaluate(self, env: Mapping[str, int]) -> bool:
        return all(p.evaluate(env) for p in self.parts)

    def evaluate_vec(self, env: Mapping[str, "np.ndarray | int"]) -> np.ndarray:
        result: np.ndarray | None = None
        for p in self.parts:
            mask = p.evaluate_vec(env)
            result = mask if result is None else (result & mask)
        if result is None:
            raise IRError("empty conjunction")
        return result

    def substitute(self, bindings: Mapping[str, AffineLike]) -> "And":
        return And(tuple(p.substitute(bindings) for p in self.parts))

    def __str__(self) -> str:
        return " and ".join(str(p) for p in self.parts)


Condition = Union[Cmp, And]


def conjoin(conds: Iterable[Condition]) -> Condition:
    """Combine conditions into a single guard condition."""
    flat: list[Cmp] = []
    for c in conds:
        if isinstance(c, And):
            flat.extend(c.parts)
        else:
            flat.append(c)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))
