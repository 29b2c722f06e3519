"""Resource caps shared by the library and the CLI.

Exhaustive enumerations grow like Bell or squared Catalan numbers, so the
operations that walk them refuse oversized inputs up front rather than
stalling.  ``BIFREE_MAX_SIZE`` raises every cap below its value to that value
and never lowers one.  Each cap reads it where it is checked, in the library
or in the CLI, so no caller passes a cap down.
"""

from __future__ import annotations

import os

ENV_MAX_SIZE = "BIFREE_MAX_SIZE"


class ResourceLimitError(RuntimeError):
    """Raised before starting an enumeration that would exceed a size cap."""


class InsufficientMomentsError(ValueError):
    """Raised when a computation needs moments of higher order than supplied."""


def env_cap(default: int) -> int:
    """The default cap, or BIFREE_MAX_SIZE when that is larger."""
    raw = os.environ.get(ENV_MAX_SIZE)
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_SIZE} must be an integer, got {raw!r}") from exc
