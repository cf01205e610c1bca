"""How much slower than a reference core this core runs right now.

On a virtual machine whose cores are shared with other tenants, their
load can slow a core down by up to 2.5x for tens of seconds at a time
(measured on an x86-64 guest with 2 vCPUs), and the guest does not count
it as stolen time.  So each timing is divided by the core's slowdown,
measured just before and just after it by a stdlib kernel that never calls
hyperfib: a change to the package moves only the timing, never the kernel.

The slowdown is the kernel parts' current times over their reference
times (the second element of each PARTS entry: the part's 10th-percentile
time on that x86-64 guest, Python 3.11), averaged.  Scaled times
therefore read as that machine's when idle.  Each workload uses the parts
whose times tracked its own ops most closely when both ran interleaved
for four minutes; setup uses the ones that tracked a fresh CLI process.
"""

from __future__ import annotations

from time import perf_counter

_M1, _M2 = 3**8400, 7**7100                  # about 4,000 and 6,000 digits
_D1, _D2, _D3 = 3**4200, 7**3500, 11**2900   # about 2,000 to 3,000 digits


def _mul():
    for _ in range(6):
        _M1 * _M2


def _muldiv():
    for _ in range(6):
        (_D1 * _D2 - _D3 * _D1) // _D3


def _interp():
    s = 0
    for i in range(12000):
        s += i * i % 7


def _add():
    for _ in range(5):
        a, b = 0, 1
        for _ in range(1500):
            a, b = b, a + b


PARTS = {"mul": (_mul, 0.00085), "muldiv": (_muldiv, 0.00135),
         "interp": (_interp, 0.00080), "add": (_add, 0.00040)}
KERNEL = {"terms": ("mul", "add"), "windows": ("muldiv", "interp", "add"),
          "verify": ("mul", "interp", "add"), "setup": ("muldiv", "interp", "add")}


def slowdown(kernel: str) -> float:
    """Current time of the kernel's parts over their reference times, averaged."""
    parts = KERNEL[kernel]
    total = 0.0
    for name in parts:
        part, reference = PARTS[name]
        start = perf_counter()
        part()
        total += (perf_counter() - start) / reference
    return total / len(parts)
