"""Re-importing the package releases the modules it replaces.

A long-running host that reloads `cteg` (the benchmark harness does, after
every work item) must not keep each old copy alive. Nothing in the package
may hold its own classes from a process-wide cache; `typing.Union` did, as
its subscriptions are memoised for the life of the process.
"""

import subprocess
import sys

PROBE = """
import gc, sys, weakref
import cteg
refs = [weakref.ref(cteg.core.Timestamp), weakref.ref(cteg.dynamics.ExecutionSequence)]
for name in [m for m in sys.modules if m == "cteg" or m.startswith("cteg.")]:
    del sys.modules[name]
del cteg
import cteg
gc.collect()
print(*(r() is None for r in refs))
"""


def test_reimporting_the_package_frees_the_old_modules():
    # in a child process, so this test's own imports of cteg play no part
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
