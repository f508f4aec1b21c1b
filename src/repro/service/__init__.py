"""Always-on checked streaming service (daemon + chaos soak harness).

The paper's checkers verify one operation at a time; this package turns
them into an operable *service*: a long-lived daemon
(:class:`~repro.service.daemon.CheckedStreamService`) multiplexes many
concurrent tenant streams, each with its own windowed checker state,
bounded ingest queue with backpressure, settlement timeout/retry,
poison-chunk capture, and heal-in-place repair — plus a deterministic
chaos soak harness (:func:`~repro.service.chaos.run_soak`) that injects
the paper's Table 4/6 manipulators into live streams and audits every
window against analytic detection bounds and bit-identical repair.
"""

from repro.service.chaos import (
    KV_FAULTS,
    SEQ_FAULTS,
    ZIP_FAULTS,
    Op,
    OpChecker,
    SoakConfig,
    SoakReport,
    TenantChaos,
    TenantSoakReport,
    build_tenants,
    run_soak,
)
from repro.service.daemon import (
    BackpressureTimeout,
    CheckedStreamService,
    TenantCommGrid,
    TenantHandle,
    TenantResult,
)
from repro.service.tenant import (
    BACKPRESSURE_PAUSE,
    BACKPRESSURE_SHED,
    PoisonRecord,
    TenantConfig,
    TenantStats,
    TenantStatsView,
)
from repro.service.windows import ENGINES, PoisonChunkError

__all__ = [
    "BACKPRESSURE_PAUSE",
    "BACKPRESSURE_SHED",
    "BackpressureTimeout",
    "CheckedStreamService",
    "ENGINES",
    "KV_FAULTS",
    "Op",
    "OpChecker",
    "PoisonChunkError",
    "PoisonRecord",
    "SEQ_FAULTS",
    "SoakConfig",
    "SoakReport",
    "TenantChaos",
    "TenantCommGrid",
    "TenantConfig",
    "TenantHandle",
    "TenantResult",
    "TenantSoakReport",
    "TenantStats",
    "TenantStatsView",
    "ZIP_FAULTS",
    "build_tenants",
    "run_soak",
]
