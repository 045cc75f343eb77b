"""Default budgets and caps, overridable via PARTIALSAT_* environment variables.

Resolution order everywhere: explicit argument > environment variable > default.
`check` is the one size-cap rule; a call that checks a cap often resolves it once.
"""
import os

from .errors import ResourceLimitError

DEFAULT_MAX_ATOMS = 22       # exhaustive truth-table sweeps: 2^22 rows worst case
DEFAULT_NODE_BUDGET = 10**6  # OBDD unique-table size
DEFAULT_BRANCH_BUDGET = 10**5  # tableaux / DPLL search-tree branches
DEFAULT_EXPANSION_CAP = 12   # quantified atoms in a materialized Shannon expansion
DEFAULT_SWEEP_CAP = 20       # fresh atoms swept by the CNF-ization loss checks

_ENV_PREFIX = "PARTIALSAT_"


def _from_env(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}")


def max_atoms(explicit: int | None = None) -> int:
    return explicit if explicit is not None else _from_env("MAX_ATOMS", DEFAULT_MAX_ATOMS)


def node_budget(explicit: int | None = None) -> int:
    return explicit if explicit is not None else _from_env("NODE_BUDGET", DEFAULT_NODE_BUDGET)


def branch_budget(explicit: int | None = None) -> int:
    return explicit if explicit is not None else _from_env("BRANCH_BUDGET", DEFAULT_BRANCH_BUDGET)


def expansion_cap(explicit: int | None = None) -> int:
    return explicit if explicit is not None else _from_env("EXPANSION_CAP", DEFAULT_EXPANSION_CAP)


def sweep_cap(explicit: int | None = None) -> int:
    return explicit if explicit is not None else _from_env("SWEEP_CAP", DEFAULT_SWEEP_CAP)


def check(count: int, cap: int, what: str) -> None:
    """The one size-cap rule: raise ResourceLimitError when count exceeds
    cap; `what` has one `{}` for the count, formatted only on failure."""
    if count > cap:
        raise ResourceLimitError(f"{what.format(count)} exceeds the cap of {cap}")
