"""Set-up probe, run in a fresh interpreter from the checkout root.

    python perfbench/probe.py SPEC [SPEC ...]

Times the import of drgcert.cli and the first build() of each family
spec, and prints one JSON line: {"import_s": ..., "setup_s": ...}.
"""

import json
import os
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import drgcert.cli  # noqa: E402

imported = perf_counter()
from drgcert.families import build  # noqa: E402

for spec in sys.argv[1:]:
    build(spec)
print(json.dumps({"import_s": imported - start, "setup_s": perf_counter() - start}))
