"""Host-speed reference: a fixed pure-Python big-integer loop timed next to each request.

Other tenants of a shared host can slow this process's CPU by up to about
1.8x, in stretches that last from under a second to tens of seconds (see
README.md, *Noise*).  The reference runs the same kind of work as the model
(CPython big-integer arithmetic and interpreter overhead), so it slows by
about the same factor.  The benchmark times the reference right before and
right after every request and scales the request's host time by
REFERENCE_S / (mean of those two reference times).  A scaled time is the
host time the request would take on a host where the reference loop takes
REFERENCE_S.  The reference lives here, apart from the program, so that a
change to the program cannot change it.
"""

from time import perf_counter

_P = 2**255 - 19

# Close to the loop's fastest reading on the host the first baseline was
# measured on (2-vCPU KVM guest, Intel Xeon, Python 3.11.7): 0.085 ms.
REFERENCE_S = 85e-6


def reference(rounds=150):
    # ints only: no objects the cyclic garbage collector tracks, so the
    # reference neither triggers nor shifts collections in the program
    x = 0x1234567890ABCDEF << 190
    y = 0xFEDCBA987654321 << 180
    folded = 0
    for i in range(rounds):
        x = (x * y + i) % _P
        folded ^= (x >> 64) & 0xFFFF
    return x ^ folded


def timed():
    """Host seconds one reference loop takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
