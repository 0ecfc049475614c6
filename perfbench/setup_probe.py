"""Set-up time of one fresh process: import `hsplab` and resolve every group
input named on the command line (a catalog name, or a group file, which
builds its stabilizer chain through sympy).

Prints one JSON object: the elapsed time from before the import to after the
last input, and the kernel backend when the program reports one.  The
interpreter's own start-up is not included.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
from hsplab import lab, perm  # noqa: E402

for spec in sys.argv[1:]:
    if os.path.exists(spec):
        perm.load_group_file(spec)
    else:
        lab.resolve_catalog(spec)
elapsed = time.perf_counter() - t0

kernels = sys.modules.get("hsplab._kernels")
backend = kernels.backend() if hasattr(kernels, "backend") else None
print(json.dumps({"setup_s": elapsed, "kernel_backend": backend}))
