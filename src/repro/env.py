"""``REPRO_*`` environment flags: one reading of "is this mode on".

Every opt-in mode (``REPRO_VERIFY``, ``REPRO_CACHE``, ``REPRO_TELEMETRY``)
treats its variable the same way:
unset, empty, ``0``, ``false``, ``off`` and ``no`` (any case) mean off,
anything else means on. DESIGN.md has the table of modes.
"""

from __future__ import annotations

import os

_FALSEY = ("", "0", "false", "off", "no")


def env_flag(name: str) -> bool:
    """Is the environment variable ``name`` set to something truthy?"""
    return os.environ.get(name, "").strip().lower() not in _FALSEY
