"""Pause the cyclic garbage collector while a function builds its data.

Parsing, grounding and explaining allocate many young containers
(frozensets, tuples, dicts of fluent ids) and free them by reference
counting alone: none of them takes part in a reference cycle. The
cyclic collector still runs a generation-0 pass every few hundred
allocations, and each pass walks every young container, so it costs
time and frees nothing. ``nogc`` switches the collector off for the
duration of one call, as Mercurial's ``util.nogc`` does.

``gc.disable`` acts on the whole process: while a decorated call runs,
other threads get no cyclic collection either. The collector is never
forced to run here and no threshold is changed, so once the call
returns, collections resume on the usual schedule.
"""

from __future__ import annotations

import functools
import gc


def nogc(func):
    """func with the cyclic collector disabled while it runs.

    The collector is enabled again on every exit, exceptions included,
    unless it was already disabled when the call began.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return wrapper
