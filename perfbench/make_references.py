#!/usr/bin/env python3
"""Write references.json: the checked answer fields of every job template.

    python3 perfbench/make_references.py

Run it from the root of the repository, only at a commit whose answers are
trusted.  A change that rewrites the references must say which answers moved
and why.  The answers do not depend on the seed (see workloads.py), so one
seed serves every run.
"""

import contextlib
import io
import json
import random
import sys

import run
from answers import REFERENCES, answer_fields


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from hsplab import cli

    run.WORK.mkdir(parents=True, exist_ok=True)
    refs = {}
    for workload in run.workloads.WORKLOADS:
        for job in run.workloads.materialize_pass(workload, random.Random(0), run.WORK, run.REL_WORK):
            run._clear_program_caches()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(job.argv))
            if rc != 0:
                raise SystemExit(f"{job.key}: exit code {rc}")
            refs[job.key] = answer_fields(job.key.split()[0], json.loads(out.getvalue()))
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
