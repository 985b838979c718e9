"""Fixed pure-Python reference loop that every timed sample is divided by.

On a shared host the speed of the interpreter drifts while nothing local is
busy: identical runs of ``verify_main_theorem()`` gave medians from 289 to
575 ms.  Timing this loop next to each sample and reporting ``sample /
reference`` cancels that drift.  The loop imports nothing from sgcalc, so no
change to the program can move it, and it exercises the same interpreter
paths the program uses: small tuples, dict lookups, list growth, slicing and
method calls on slotted objects, plus plain integer bytecode.
"""

from __future__ import annotations

import gc
import time

# Nominal reference time: the loop's median on the machine the baseline was
# taken on.  ``setup_s`` is scaled to it so that it reads as seconds.
NOMINAL_S = 0.004


class _Cell:
    __slots__ = ("name", "exp")

    def __init__(self, name: str, exp: int):
        self.name = name
        self.exp = exp

    def flipped(self) -> "_Cell":
        return _Cell(self.name, -self.exp)


_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")


def _work(rounds: int) -> int:
    acc = 0
    seen: dict[tuple[str, int], int] = {}
    stack: list[_Cell] = []
    for i in range(rounds):
        cell = _Cell(_NAMES[i & 7], 1 if i % 3 else -1)
        if stack and stack[-1].name == cell.name and stack[-1].exp == -cell.exp:
            stack.pop()
        else:
            stack.append(cell)
        key = (cell.name, len(stack) % 11)
        seen[key] = seen.get(key, 0) + 1
        if len(stack) > 48:
            stack = [c.flipped() for c in stack[24:]]
        acc = (acc * 31 + seen[key] + len(stack)) & 0xFFFFFF
    return acc


def _count(steps: int) -> int:
    a, b = 1, 0
    for i in range(steps):
        a = (a * 31 + i) & 0xFFFF
        b ^= a >> 3
    return b


# Three quarters object churn, one quarter plain bytecode.  Measured on the
# host the baseline was taken on, the churn loop's speed follows the
# program's slow and fast phases closely but a little too strongly, the
# plain loop too weakly; this mix follows them one to one.  A loop over a
# table larger than the L2 cache followed them far too strongly.
ROUNDS = 2000
STEPS = 6700
CHECKSUM = (_work(ROUNDS), _count(STEPS))


def measure() -> float:
    """Seconds for one run of the loop (the median of three back-to-back runs).

    The cyclic garbage collector is off while the loop runs: its
    allocations would otherwise trigger collections that scan the caller's
    heap, and the reference would time the caller's garbage.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            if (_work(ROUNDS), _count(STEPS)) != CHECKSUM:
                raise RuntimeError("reference loop is not deterministic")
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[1]
