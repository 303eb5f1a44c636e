"""Record the simulated results the benchmark checks outputs against.

Writes ``expected/fig7.json`` (cycles and LSU stalls of every Fig. 7
cell, 4 cores, n = 4096) and ``expected/service.json`` (the result
payload of every job spec the service stream or its warm-up can
submit). Run it from the repository root on the commit whose results
are the reference, then commit the files:

    PYTHONPATH=src python3 perfbench/record.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    from repro.harness import run_sweep
    from repro.service import execute_job, validate_job

    from loadgen import SPACE, WARMUP
    from tracing import spec_id

    fig7 = {}
    for bench in ("vecadd", "transpose"):
        sweep = run_sweep(bench)
        fig7[bench] = {f"{w}x{t}": [sweep.cycles[(w, t)],
                                    sweep.lsu_stalls[(w, t)]]
                       for w, t in sorted(sweep.cycles)}
    service = {spec_id(spec): execute_job(validate_job(spec))
               for spec in WARMUP + SPACE}
    for name, data in (("fig7", fig7), ("service", service)):
        with open(HERE / "expected" / f"{name}.json", "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    print(f"recorded {sum(map(len, fig7.values()))} fig7 cells and "
          f"{len(service)} service specs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
