"""Write reference.json: the survey's inputs and every pinned result.

    PYTHONPATH=src python3 perfbench/pin.py

The pins were made once from the code the benchmark was defined on.  Every
later run is checked against them, so a change whose results differ must
fix the code, not re-pin.
"""

import json
import os
import sys

import workloads


def survey_ops() -> list[dict]:
    """Every canonical level of norm 2..25 in the five fields, the distinct
    etas they use, weight 4 at norm 2..7 and the default oracle cases."""
    from bianchi.boundary import cuspidal_subspace
    from bianchi.quadints import Field, canonical_elements_of_norm, parse_element
    from bianchi.symbols import symbol_space
    from bianchi.verify import DEFAULT_ORACLE_CASES, _coprime_etas

    def hecke(d, nu, etas, *extra):
        cmd = ["hecke", f"--d={d}", f"--level={nu}", *extra, f"--eta={etas[0]}"]
        return cmd + [f"--commute-with={e}" for e in etas[1:]]

    levels, heil, weight4 = [], {}, []
    for d in (1, 2, 3, 7, 11):
        fld = Field.get(d)
        for n in range(2, 26):
            for nu in canonical_elements_of_norm(fld, n):
                etas = _coprime_etas(fld, nu, 4)
                cmds = [["space", f"--d={d}", f"--level={nu}"], hecke(d, nu, etas)]
                if cuspidal_subspace(symbol_space(fld, nu, 2)).dim > 0:
                    cmds.append(["eigen", f"--d={d}", f"--level={nu}"])
                levels.append({"id": f"level/d={d},n={nu}", "kind": "level", "norm": n,
                               "commands": cmds})
                for e in etas:
                    heil.setdefault(f"heilbronn/d={d},eta={e}", {
                        "id": f"heilbronn/d={d},eta={e}", "kind": "heilbronn", "norm": e.norm(),
                        "commands": [["heilbronn", f"--d={d}", f"--eta={e}", "--verify"]]})
                if n <= 7:
                    weight4.append({"id": f"weight4/d={d},n={nu}", "kind": "weight4", "norm": n,
                                    "commands": [hecke(d, nu, etas, "--weight=4")]})
    oracle = []
    for d, level, eta in DEFAULT_ORACLE_CASES:
        fld = Field.get(d)
        oracle.append({"id": f"oracle/d={d},n={level},eta={eta}", "kind": "oracle",
                       "norm": parse_element(fld, level).norm(),
                       "commands": [["hecke", f"--d={d}", f"--level={level}",
                                     f"--eta={eta}", "--oracle"]]})
    return levels + list(heil.values()) + weight4 + oracle


def main() -> int:
    ref: dict = {"survey_ops": survey_ops()}
    for name in workloads.WORKLOADS:
        chk = workloads.Checker(None, record=True)
        res = workloads.run(name, 0, "full", chk, ref)
        print(f"{name}: {res['attempted']} results, {res['wall_s']:.1f}s", file=sys.stderr)
        ref[name] = chk.expected
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
