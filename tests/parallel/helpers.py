"""Backend-parameterized launch helpers for the parallel test suite.

Every test in this directory launches rank programs through these
helpers instead of calling :class:`repro.parallel.Machine` directly, so
one environment variable replays the whole suite on a different
execution backend:

    REPRO_TEST_BACKEND=process  PYTHONPATH=src python -m pytest tests/parallel

The default is the cheap ``thread`` backend.  The CI process leg sets
``REPRO_TEST_BACKEND=process``; process runs use the ``fork`` start
method so rank programs may be test-local closures and lambdas (``fork``
inherits them, ``spawn`` would have to pickle them).  Spawn-specific
coverage lives in ``test_process_backend.py`` with module-level
programs.
"""

import os

from repro.parallel import Machine, RunConfig

#: Which backend this test session runs against ("thread" or "process").
BACKEND = os.environ.get("REPRO_TEST_BACKEND", "thread")


def config(size, **kwargs):
    """A :class:`RunConfig` for ``size`` ranks on the session backend."""
    if BACKEND == "process":
        kwargs.setdefault("start_method", "fork")
    return RunConfig(size=size, backend=BACKEND, **kwargs)


def launch(size, fn, *args, store=None, **cfg_kwargs):
    """Run ``fn`` on ``size`` ranks; return the full :class:`RunResult`."""
    machine = Machine(config(size, **cfg_kwargs))
    return machine.run(fn, *args, store=store)


def run(size, fn, *args, **cfg_kwargs):
    """Run ``fn`` and return the per-rank values."""
    return launch(size, fn, *args, **cfg_kwargs).values


def run_report(size, fn, *args, **cfg_kwargs):
    """Run ``fn`` and return its :class:`SpmdReport`."""
    return launch(size, fn, *args, **cfg_kwargs).report


def run_recovering(size, fn, *args, **cfg_kwargs):
    """Run ``fn`` under the self-healing policy; return the RunResult."""
    cfg_kwargs.setdefault("recover", True)
    return launch(size, fn, *args, **cfg_kwargs)
