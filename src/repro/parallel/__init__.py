"""In-process SPMD substrate: an MPI-like communicator and machine.

The paper's algorithms ran under MPI on the Jaguar Cray XT5.  This package
provides the substitute substrate: rank programs are ordinary Python
callables ``fn(comm, ...)`` executed SPMD, either on a single rank
(:class:`SerialComm`) or on ``P`` concurrent ranks.  The only channel
between ranks is the :class:`Comm` interface, mirroring the discipline of
distributed-memory code; all traffic is metered by :class:`CommStats` so
the benchmark harness can charge an alpha-beta communication model.

Launching is declarative: describe the run with a :class:`RunConfig`
(rank count, ``backend="thread" | "process"``, communicator
:class:`layers <repro.parallel.layers.CommLayer>`, recovery policy) and
execute it with :class:`Machine`.  Backends are interchangeable — same
values, byte-exact :class:`CommStats` — the thread backend is cheap to
launch while the process backend runs rank compute truly in parallel
(see ``docs/BACKENDS.md``).
"""

from repro.parallel.backend import (
    MAX_RANKS,
    Backend,
    RankOutcome,
    SpmdError,
    SpmdReport,
    get_backend,
)
from repro.parallel.comm import Comm, CommDecorator, MeteredComm, SerialComm
from repro.parallel.faults import Fault, FaultPlan, FaultyComm, InjectedFailure
from repro.parallel.layers import (
    LAYER_ORDER,
    CommLayer,
    Faults,
    LayerContext,
    Sanitize,
    Trace,
    Watchdog,
    wrap_comm,
)
from repro.parallel.machine import ThreadBackend, ThreadComm
from repro.parallel.ops import MAX, MIN, PROD, SUM, payload_nbytes
from repro.parallel.process_backend import ProcessBackend, ProcessComm
from repro.parallel.run import (
    CheckpointStore,
    Machine,
    MemoryCheckpointStore,
    RecoveryReport,
    RunConfig,
    RunResult,
)
from repro.parallel.sanitizer import (
    CollectiveMismatchError,
    SanitizedComm,
    SanitizerState,
)
from repro.parallel.stats import CommStats
from repro.parallel.watchdog import (
    FlightRecorder,
    HangError,
    HangWatchdog,
    WatchdogComm,
)

__all__ = [
    # Launch API
    "RunConfig",
    "Machine",
    "RunResult",
    "SpmdReport",
    "RankOutcome",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "RecoveryReport",
    # Layers
    "CommLayer",
    "LayerContext",
    "LAYER_ORDER",
    "Faults",
    "Sanitize",
    "Watchdog",
    "Trace",
    "wrap_comm",
    # Backends
    "Backend",
    "get_backend",
    "ThreadBackend",
    "ProcessBackend",
    "MeteredComm",
    "ThreadComm",
    "ProcessComm",
    "MAX_RANKS",
    # Communicators and errors
    "Comm",
    "CommDecorator",
    "SerialComm",
    "SpmdError",
    # Fault injection
    "Fault",
    "FaultPlan",
    "FaultyComm",
    "InjectedFailure",
    # Sanitizer
    "CollectiveMismatchError",
    "SanitizedComm",
    "SanitizerState",
    # Watchdog
    "HangError",
    "HangWatchdog",
    "WatchdogComm",
    "FlightRecorder",
    # Metering
    "CommStats",
    "SUM",
    "MIN",
    "MAX",
    "PROD",
    "payload_nbytes",
]
