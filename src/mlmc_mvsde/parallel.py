"""The per-sample loop, in index order.

Sampling is single-threaded by design: a thread pool over samples was
slower than one thread. The loop keeps its own name because ``perfbench``
traces it as the ``parallel.ordered_map`` layer.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def ordered_map(fn: Callable[[int], T], indices: Iterable[int]) -> list[T]:
    return [fn(i) for i in indices]
