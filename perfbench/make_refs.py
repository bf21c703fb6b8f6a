"""Regenerate perfbench/refs.json, the reference report of every job in
every workload's catalogue, from the code in src/:

    python3 perfbench/make_refs.py

Each job runs once, cold, with its memos dropped.  A job whose exit code,
``passed`` flag or published values are wrong stops the script, and so
does a fixed-ring job whose dimensions differ from those of the ring
generated by the published generators (acceptance criteria 8 to 10).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from jobs import WORKLOADS, all_jobs, check


def _published_fixed_dims() -> dict:
    from cohomolab.cohomology_ring_models import (check_lemma_3_4,
                                                  check_theorem_5_10,
                                                  check_theorem_5_12)
    shear3, shear5 = check_lemma_3_4(3, 30), check_lemma_3_4(5, 40)
    return {
        "ringmodel D8-5.10 p3 d24": check_theorem_5_10(24).generated_dims,
        "ringmodel S3xC3-5.12 p7 d60": check_theorem_5_12(60).generated_dims,
        # the shear criterion compares even degrees only
        "ringmodel C3-shear-3.4 p3 d30": (shear3.generated_dims, 2),
        "ringmodel C3-shear-3.4 p5 d40": (shear5.generated_dims, 2),
    }


def main() -> int:
    workdir = os.path.join(run.WORK, "make-refs")
    refs: dict[str, str] = {}
    try:
        for workload in WORKLOADS:
            runner = run.Runner(workload, 0, workdir)
            runner.cache_dir = None
            for job in all_jobs(workload):
                for name, K in job.files:
                    with open(os.path.join(workdir, name), "w") as fh:
                        json.dump(K, fh)
                _, code, text = runner.run_job(job, check=False)
                reason = check(job, code, text, {job.id: text})
                if reason:
                    sys.exit(f"{job.id}: {reason}")
                if refs.setdefault(job.id, text) != text:
                    sys.exit(f"{job.id}: two different reports")
        for job_id, want in _published_fixed_dims().items():
            step = 1
            if isinstance(want, tuple):
                want, step = want
            got = json.loads(refs[job_id])["fixed_dims"][::step]
            if got != want:
                sys.exit(f"{job_id}: fixed dims {got} != published {want}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(refs)} reference reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
