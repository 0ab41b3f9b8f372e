"""Semantic-equivalence verification of transformed programs.

Every transformation in this package is checked against the reference
interpreter: the original and transformed programs run on identical inputs
(same positional read() stream, same per-array-name initial contents) and
must produce identical observables — the output scalars and output arrays.

This oracle is what lets the storage transforms be *optimistic*: a rewrite
whose static legality analysis is approximate is still only ever accepted
after the oracle passes on multiple problem sizes and input seeds.

A gate that checks several candidates against one original (the
pipeline's stages, Figure 8's two stages) passes one
:class:`ReferenceRuns`, so the original is interpreted once per problem
size and seed, not once per candidate.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import VerificationError
from ..interp.evaluator import EvalResult, evaluate
from ..lang.program import Program

#: Default problem sizes used for verification (overridable per call).
DEFAULT_SIZES: tuple[int, ...] = (4, 7, 16)
DEFAULT_SEEDS: tuple[int, ...] = (20001, 4242)


class ReferenceRuns:
    """The interpreted runs of one original program, each (params, seed)
    evaluated once and shared by every candidate verified against it."""

    def __init__(self, original: Program):
        self.original = original
        self._runs: dict[tuple, EvalResult] = {}

    def run(self, params: Mapping[str, int], seed: int) -> EvalResult:
        key = (tuple(sorted(params.items())), seed)
        if key not in self._runs:
            self._runs[key] = evaluate(self.original, params, input_seed=seed)
        return self._runs[key]


def verify_equivalent(
    original: Program,
    transformed: Program,
    param: str | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    params_list: Sequence[Mapping[str, int]] | None = None,
    rtol: float = 1e-9,
    reference: ReferenceRuns | None = None,
) -> None:
    """Raise :class:`VerificationError` unless the two programs agree.

    By default the first program parameter is swept over ``sizes``; pass
    ``params_list`` for multi-parameter programs.  ``reference`` holds
    the original's runs across calls (it must be of ``original``).
    """
    if reference is None:
        reference = ReferenceRuns(original)
    elif reference.original is not original:
        raise ValueError("reference runs are of another program")
    if set(original.output_scalars) != set(transformed.output_scalars):
        raise VerificationError(
            f"{transformed.name}: output scalars changed "
            f"({sorted(original.output_scalars)} -> {sorted(transformed.output_scalars)})"
        )
    missing = set(original.output_arrays) - set(transformed.output_arrays)
    if missing:
        raise VerificationError(
            f"{transformed.name}: output arrays {sorted(missing)} disappeared"
        )

    if params_list is None:
        if param is None:
            param = next(iter(original.params), None)
        if param is None:
            params_list = [dict()]
        else:
            params_list = [{param: n} for n in sizes]

    for params in params_list:
        for seed in seeds:
            try:
                ref = reference.run(params, seed)
                got = evaluate(transformed, params, input_seed=seed)
            except Exception as exc:  # surface interpreter failures as verification
                raise VerificationError(
                    f"{transformed.name}: run failed at {params}: {exc}"
                ) from exc
            for name in original.output_scalars:
                a, b = ref.scalars[name], got.scalars[name]
                if not _close(a, b, rtol):
                    raise VerificationError(
                        f"{transformed.name}: scalar {name} mismatch at {params} "
                        f"(seed {seed}): {a!r} vs {b!r}"
                    )
            for name in original.output_arrays:
                a_arr, b_arr = ref.arrays[name], got.arrays[name]
                if a_arr.shape != b_arr.shape or not np.allclose(a_arr, b_arr, rtol=rtol):
                    raise VerificationError(
                        f"{transformed.name}: array {name} mismatch at {params} "
                        f"(seed {seed})"
                    )


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def is_equivalent(original: Program, transformed: Program, **kwargs) -> bool:
    """Boolean form of :func:`verify_equivalent`."""
    try:
        verify_equivalent(original, transformed, **kwargs)
        return True
    except VerificationError:
        return False
