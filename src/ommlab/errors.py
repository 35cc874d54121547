"""Exception types shared across the package, and the one rule by which a
stacked call keeps a failure to the point it fails at."""

from collections.abc import Callable
from typing import Any

import numpy as np


class OmmlabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(OmmlabError, ValueError):
    """An argument is outside the physical or mathematical domain of an operation."""


class ConfigError(OmmlabError, ValueError):
    """A configuration mapping is malformed: unknown keys, bad types, bad ranges."""


class NumericalError(OmmlabError, ArithmeticError):
    """A numerical routine produced an unusable result (singular system,
    non-converged eigensolve, negative radicand beyond tolerance, ...)."""


class ConvergenceError(NumericalError):
    """An iterative routine ran out of its integration horizon or iteration budget."""


class StabilityError(OmmlabError):
    """A routine that requires an asymptotically stable drift was handed an
    unstable one."""


class DegenerateOperatingPointError(OmmlabError):
    """The semiclassical working point is degenerate (vanishing response
    denominator), so linearization is meaningless there."""


def _batched(
    call: Callable[..., Any], blank: Callable[[int], Any], *stacks: np.ndarray,
    owner: np.ndarray | None = None, errors: np.ndarray | None = None, message: str = "",
) -> Any:
    """``call(*stacks)``, one batched call over stacks whose row k belongs to
    point ``owner[k]`` (k by default; a point's rows next to each other).
    The rows of points with an error in the column ``errors`` are left out.
    Should the call raise a ``LinAlgError`` or an :class:`OmmlabError`, it
    is made on each point's rows alone, and an error raised again is the
    point's (a ``LinAlgError`` as a :class:`NumericalError` after
    ``message``). Rows left out or failed hold ``blank(n)``, the NaN
    results of n rows."""
    ok = None
    if errors is not None and errors.tolist().count(None) < len(errors):
        ok = np.equal(errors if owner is None else errors[owner], None)
    try:
        if ok is None:  # no point has an error: the stacks as they are, no copies
            return call(*stacks)
        parts = [(ok, call(*(x[ok] for x in stacks)))]
    except (np.linalg.LinAlgError, OmmlabError):
        owner = np.arange(len(stacks[0])) if owner is None else owner
        bounds = np.flatnonzero(np.diff(owner, prepend=-1, append=-1)).tolist()
        parts = []
        for at in (slice(*pair) for pair in zip(bounds[:-1], bounds[1:])):
            if ok is not None and not ok[at.start]:
                continue
            try:
                parts.append((at, call(*(x[at] for x in stacks))))
            except (np.linalg.LinAlgError, OmmlabError) as exc:
                if errors is not None:
                    errors[owner[at.start]] = (
                        exc if isinstance(exc, OmmlabError) else NumericalError(f"{message}{exc}")
                    )
    results = blank(len(stacks[0]))
    columns = results if isinstance(results, tuple) else (results,)
    for at, part in parts:
        for column, values in zip(columns, part if isinstance(part, tuple) else (part,)):
            column[at] = values
    return results
