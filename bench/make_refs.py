"""Regenerate the references that the workloads' correctness gates use.

    python3 bench/make_refs.py

Writes bench/ref/<template>_p<P>.json: the maximal RCIS that `rcis
--preview P` returns on the unpermuted template; rcis-templates checks
every later run against these files at TAU_SET. Writes
bench/ref/regret_cells.json: per regret-sweep instance, the true_dp and
bound_* cells of `regret --p-max 6` on the unpermuted system that hold a
finite number; regret-sweep fails an op that leaves one of them empty or
not finite. Run it only on a commit whose results are trusted.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from preview_regret import cli, models  # noqa: E402
from workloads import (  # noqa: E402
    REF_DIR,
    REGRET_CELLS,
    RcisTemplates,
    RegretSweep,
    filled_cells,
    reference_path,
    write_system,
)


def main():
    os.makedirs(REF_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REF_DIR) as tmp:
        for template, previews in RcisTemplates.CASES:
            path = os.path.join(tmp, "system.json")
            write_system(path, models.build_template(template)[0])
            for P in previews:
                out = os.path.join(tmp, "rcis.json")
                code = cli.main(["rcis", path, "--preview", str(P),
                                 "--out", out])
                with open(out) as fh:
                    doc = json.load(fh)
                if code != 0 or not doc["converged"]:
                    sys.exit(f"{template} P={P}: rcis failed")
                with open(reference_path(template, P), "w") as fh:
                    json.dump(doc["polytope"], fh)
                    fh.write("\n")
        cells = {}
        for label, system in RegretSweep.systems():
            path = os.path.join(tmp, "system.json")
            out = os.path.join(tmp, "regret.csv")
            write_system(path, system)
            if cli.main(["regret", path, "--p-max", str(RegretSweep.P_MAX),
                         "--out", out]) != 0:
                sys.exit(f"regret {label}: exit code not 0")
            cells[label] = filled_cells(out)
        with open(REGRET_CELLS, "w") as fh:
            json.dump(cells, fh)
            fh.write("\n")


if __name__ == "__main__":
    main()
