"""The repo's benchmark: one runner, six workloads, end-to-end and per-layer.

``python -m benchmarks.suite run|trace|compare|check`` — see README.md in
this directory.  The package imports only ``repro``'s public API and its
own files; ``BENCHMARK.json`` at the repo root is generated from
:mod:`benchmarks.suite.registry`.
"""
