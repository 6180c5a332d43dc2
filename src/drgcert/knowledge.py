"""Empty module, kept only so that the benchmark tracer can import it.

Recorded quantum symmetry verdicts live in one place, the graph rows of
data/expected_tables.json that ``tables`` reads; the engine proves
HAS_QSYM from two disjoint automorphisms of the graph itself (see
certify).  ``perfbench/spans.py`` imports every module in its
``MODULES`` tuple, this one included, so the file goes with the next
benchmark revision, which drops it from that tuple.
"""
