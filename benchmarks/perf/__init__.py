"""Performance ledger: four named workloads, end-to-end and per-layer metrics.

``python -m benchmarks.perf run`` drives the real program (a ``repro
server`` subprocess plus the offline miner in process), checks every
answer against an oracle and prints every metric by name.  See
``README.md`` in this directory for the glossary and the noise protocol.
"""
