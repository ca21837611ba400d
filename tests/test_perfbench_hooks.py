"""The benchmark's tracing hooks still bind to the library.

``perfbench/tracing.py`` rebinds library functions by name and reads map
sizes through ``nbytes``; a renamed or deleted function, or a map form
without ``nbytes``, breaks the traced run.  A hook that nothing calls any
more breaks its metric without a word, so the recorder's is counted.  ``tracing.install`` rebinds
process-wide, so the traced round runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import tracing, workloads

tracer = tracing.Tracer()
tracing.install(tracer)
ran, failed = {}, []
op_id = 0
for name in ("kernel-large", "certify", "oracle-sweep"):
    ops = workloads.WORKLOADS[name][0](0)
    ran[name] = len(ops)
    for label, op in ops:
        try:
            reason = tracer.run_op(op_id, op)
        except Exception as exc:
            reason = type(exc).__name__
        if reason is not None:
            failed.append(f"{name}/{label}:{reason}")
        op_id += 1
# The recorder spans under each extraction span, found through the parents.
labels = [span[0] for span in tracer.spans]
recorded = dict.fromkeys((i for i, label in enumerate(labels)
                          if label == "extraction.extract_decomposition"), 0)
for i, label in enumerate(labels):
    if label == "extraction.pointwise":
        up = tracer.spans[i][3]
        while up >= 0 and up not in recorded:
            up = tracer.spans[up][3]
        recorded[up] = recorded.get(up, 0) + 1
print(json.dumps({"ran": ran, "failed": failed, "amounts": dict(tracer.amounts),
                  "pointwise_per_extraction": sorted(set(recorded.values()))}))
"""


def test_one_traced_round_of_every_workload_runs_clean():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                      str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert all(result["ran"].values()), result["ran"]
    assert result["failed"] == []
    assert result["amounts"]["counting.apply_matrix.bytes"] > 0
    assert result["amounts"]["extraction.terms"] > 0
    # Extraction records its terms in one pointwise product, and the
    # hook the benchmark binds to it stays on that path.
    assert result["pointwise_per_extraction"] == [1]
