"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at D = 20, n = 12 (Lanford m = 6, rational-node
monomial m = 8) twice with tracing, and checks that every metric named
in BENCHMARK.json is emitted, that every per-layer figure the tracer
records is nonzero on at least one workload (a layer function that was
renamed or moved would read zero everywhere), and that every traced
count (``.calls``, ``newton_iterations``, ``clenshaw_terms``,
``eig_dense.n``) is the same in both runs.  The paper's numbers do not
hold at these sizes, so the output checks are reported, not required;
``delta_digits`` is taken against the true delta, since no reference
delta of these discretizations is stored.  Exits 1 on a harness fault.
"""

from __future__ import annotations

import sys

import run

SEED = 1


def main() -> int:
    spec = run._load_spec()
    run._import_package()
    import workloads

    tiny = workloads.Sizes(digits=20, nodes=12, table1_rows=4, family_nodes=12,
                           family_compared=4, lanford=6, rational=8,
                           table1_delta=workloads.DELTA, family_delta=workloads.DELTA,
                           lanford_delta=workloads.DELTA)
    end_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    problems, seen = [], set()
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = [run.measure(name, SEED, 0, True, sizes=tiny) for _ in range(2)]
        ends = run.end_to_end(runs[0], 0.0)
        layers = [run.per_layer(r, layer_names) for r in runs]
        problems += ["%s: end-to-end %s not emitted" % (name, m)
                     for m in end_names if ends.get(m, (None,))[0] is None]
        seen |= {m for m in layer_names if layers[0].get(m, (0,))[0]}
        counts = [m for m in layer_names if not m.endswith((".s", "_s"))]
        problems += ["%s: %s is %s then %s" % (name, m, layers[0][m][0], layers[1][m][0])
                     for m in counts if layers[0][m][0] != layers[1][m][0]]
        failures = sorted({f for r in runs for p in r["passes"] for f in p["failures"]})
        print("%-8s %d passes, %d traced counts repeat; output checks at tiny size: %s"
              % (name, sum(len(r["passes"]) for r in runs), len(counts),
                 "; ".join(failures) or "all hold"))
    problems += ["per-layer %s is zero on every workload" % m
                 for m in layer_names if m not in seen]
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
