"""Every budget and cap: its variable, its default and its rules.

`resolve(name, explicit)` is the one resolution rule: the explicit value,
else the PARTIALSAT_<name> environment variable, else `DEFAULTS[name]`,
and never below 0; a call resolves each limit once and passes the integer
down, and `refuse_negative` refuses a negative argument on entry where a
call may answer without resolving it.  `check` is the one size-cap rule
and `Budget` the one work-budget rule: nothing else raises
ResourceLimitError."""
import os

from .errors import ResourceLimitError

DEFAULTS = {
    "MAX_ATOMS": 22,         # exhaustive truth-table sweeps: 2^22 rows worst case
    "NODE_BUDGET": 10**6,    # OBDD unique-table size
    "BRANCH_BUDGET": 10**5,  # tableaux / DPLL search-tree branches
    "EXPANSION_CAP": 12,     # quantified atoms in a materialized Shannon expansion
    "SWEEP_CAP": 20,         # fresh atoms swept by the CNF-ization loss checks
}

_ENV_PREFIX = "PARTIALSAT_"


def _from_env(name: str, default: int) -> int:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_PREFIX}{name} must be an integer, got {raw!r}")


def resolve(name: str, explicit: int | None = None) -> int:
    """The limit `name` (a key of DEFAULTS): explicit > environment > default, never < 0."""
    value = explicit if explicit is not None else _from_env(name, DEFAULTS[name])
    if value < 0:
        source = name if explicit is not None else _ENV_PREFIX + name
        raise ValueError(f"{source} must not be negative, got {value}")
    return value


def refuse_negative(**explicit: int | None) -> None:
    """Refuse an explicit limit below 0 on entry to a call that may answer
    without resolving it, as `resolve` would; reads no environment variable."""
    for name, value in explicit.items():
        if value is not None:
            resolve(name, value)


def check(count: int, cap: int, what: str) -> None:
    """The one size-cap rule: raise ResourceLimitError when count exceeds
    cap; `what` has one `{}` for the count, formatted only on failure."""
    if count > cap:
        raise ResourceLimitError(f"{what.format(count)} exceeds the cap of {cap}")


class Budget:
    """The one work-budget rule: each `spend` uses one unit of work (a
    search split, a new OBDD node), and the unit past `limit` raises
    `<what> exceeded the <noun> of <limit>`."""

    __slots__ = ("limit", "used", "what", "noun")

    def __init__(self, limit: int, what: str, noun: str = "budget"):
        self.limit, self.used, self.what, self.noun = limit, 0, what, noun

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise ResourceLimitError(f"{self.what} exceeded the {self.noun} of {self.limit}")
