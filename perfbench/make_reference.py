"""Write reference.json: the values the checks compare against.

Run once, at the commit that defines the benchmark; a later commit must
not regenerate it, or the reference checks would compare a commit with
itself.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import lpcuntz as lp  # noqa: E402
from workloads import ExactAudit, NormLadder  # noqa: E402


def main():
    ladder = NormLadder()
    results = ladder.solve(lp, ladder.setup(lp, 0, "full"), lambda item: None)
    audit = ExactAudit()
    state = audit.setup(lp, 0, "full")
    classes = {
        label: {
            name: cond.value
            for name, cond in lp.spatiality_report(rep, depth=depth, seed=state["report_seed"]).conditions.items()
        }
        for label, rep, depth in state["reports"]
    }
    reference = {
        "norm-ladder": NormLadder.reference_values(results),
        "exact-audit": {"report_classes": classes},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
