"""Writes the reference outputs that seed-0 runs are checked against:
report.txt of desk-pipeline and wide-sweep, and the band, escalations and
TD/TI scores of cascade-decisions.

    python3 perfbench/make_reference.py

Rewrite them only for an intended change of outputs, and say so where the
change is described; a run whose outputs differ counts the difference as a
failed operation.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main() -> None:
    run._import_package()
    import workloads
    from spans import Tracer

    for name, cls in workloads.WORKLOADS.items():
        work = os.path.join(run.WORK, name, "reference")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        os.chdir(work)
        wl = cls(0, workloads.load_settings(name))
        wl.prepare()
        wl.setup(Tracer())
        wl.inputs()
        wl.reference = None
        tally = workloads.Tally()
        wl.run_pass(Tracer(), tally)
        if tally.failed:
            raise SystemExit(f"{name}: {tally.problems}")
        if name == "cascade-decisions":
            with open(os.path.join(workloads.REFERENCE, f"{name}.seed0.json"), "w") as f:
                json.dump(wl.outputs(), f, indent=1)
                f.write("\n")
        else:
            shutil.copy(os.path.join(wl.cfg.report_dir, "report.txt"),
                        os.path.join(workloads.REFERENCE, f"{name}.seed0.report.txt"))
        print(f"{name}: reference written")


if __name__ == "__main__":
    main()
