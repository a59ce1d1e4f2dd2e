"""Worker-count resolution and order-preserving parallel map.

SMX_THREADS caps parallelism (0 or unset means auto). Tasks must be
pure functions of their inputs; results are collected in input order so
any schedule produces identical output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "SMX_THREADS"


def thread_count() -> int:
    """Resolve the worker count from SMX_THREADS."""
    raw = os.environ.get(ENV_VAR, "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"{ENV_VAR} must be >= 0")
    if value == 0:
        value = os.cpu_count() or 1
    return value


def run_ordered(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` to every item, preserving item order in the result."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
