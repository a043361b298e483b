"""Trace checking: the executable specification is the oracle.

A trace (an automaton's, or the stack's ``ActionLog``) is walked through
its specification by the spec's owner (``accept_*``, over
:func:`repro.ioa.acceptor.accept`); ``check_*`` raise ``AssertionError``
at the first step the spec cannot take, else return a small stats dict.
"""

from collections import Counter
from types import MappingProxyType

from repro.cb.spec import accept_cb
from repro.dvs.refinement import accept_dvs
from repro.to.refinement import accept_to
from repro.vs.spec import accept_vs

_ACCEPT = MappingProxyType({
    "VS": accept_vs, "DVS": accept_dvs, "TO": accept_to, "CB": accept_cb,
})


def _check(name, trace, initial_view=None):
    state, rejection = _ACCEPT[name](trace, initial_view)
    if rejection is not None:
        raise AssertionError(str(rejection))
    return state, Counter(a.name for a in trace)


def check_vs_trace_properties(trace, initial_view, prefix="vs"):
    """Trace inclusion in Figure 1 (``prefix="dvs"``: in Figure 2)."""
    state, count = _check(prefix.upper(), trace, initial_view)
    views = {g for (_, g), n in state.next.items() if n > 1}
    return {"views": len(views), "deliveries": count[prefix + "_gprcv"],
            "safe": count[prefix + "_safe"]}


def check_dvs_trace_properties(trace, initial_view):
    """Trace inclusion in DVS (Figure 2; Theorem 5.9's conclusion)."""
    stats = check_vs_trace_properties(trace, initial_view, prefix="dvs")
    return dict(stats, registers=sum(a.name == "dvs_register" for a in trace))


def check_to_trace_properties(trace):
    """Trace inclusion in TO (Theorem 6.4's conclusion)."""
    state, count = _check("TO", trace)
    return {"broadcasts": count["bcast"], "deliveries": count["brcv"],
            "max_delivered": max(state.next.values(), default=1) - 1}


def check_cb_trace_properties(trace):
    """Trace inclusion in CB (causal order, integrity, sender FIFO)."""
    state, count = _check("CB", trace)
    rows = [sum(row.values()) for row in state.next.values()]
    return {"broadcasts": count["cbcast"], "deliveries": count["cb_brcv"],
            "max_delivered": max(rows, default=0)}
