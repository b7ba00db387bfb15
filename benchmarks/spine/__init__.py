"""Measurement spine: the one benchmark every performance claim is made against.

``python3 -m benchmarks.spine`` runs four pinned workloads on the Q-graph
virtual-time simulator, reports end-to-end metrics on both clocks
(``vt_*`` = simulated time, the rest = host time), checks the answers, and
attributes the host time of a separate traced run to the layers under
``src/repro/``.  See ``README.md`` beside this file for the metric glossary,
the workload rationale and how the numbers interact.
"""
