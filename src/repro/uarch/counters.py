"""Performance-counter schema (the simulator's "VTune" event list).

The figures read ``CoreResult`` fields directly and derive their
metrics in :mod:`repro.core.analysis`; this module only names the
scalar counters, which :meth:`repro.uarch.chip.ChipResult.summed` adds
across cores.
"""

from __future__ import annotations

#: The counter schema: every scalar counter a ``CoreResult`` carries.
#: This tuple is the single source of truth the static counter-schema
#: lint rule cross-checks against the ``CoreResult`` dataclass and the
#: part/whole invariants in :mod:`repro.core.validate` — add a counter
#: here *and* as a ``CoreResult`` field, or ``python -m repro lint``
#: fails the build.
COUNTER_NAMES: tuple[str, ...] = (
    "cycles",
    "instructions",
    "os_instructions",
    "committing_cycles",
    "committing_cycles_os",
    "stalled_cycles",
    "stalled_cycles_os",
    "memory_cycles",
    "superq_busy_cycles",
    "superq_requests",
    "mlp",
    "loads",
    "stores",
    "branches",
    "branch_mispredicts",
    "l1i_misses",
    "l1i_misses_os",
    "l2i_misses",
    "l2i_misses_os",
    "l1d_misses",
    "l2_demand_hits",
    "l2_demand_accesses",
    "llc_misses",
    "llc_data_refs",
    "remote_dirty_hits",
    "remote_dirty_hits_os",
    "offchip_bytes",
    "offchip_bytes_os",
)
