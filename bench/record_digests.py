"""Record the output digests that bench/run.py checks for shipped seeds.

    python3 bench/record_digests.py

Runs each workload's requests once through `cli_main` for workload seeds
0..SEEDS-1 and writes bench/digests.json. The recorded bytes are the contract
later engines must reproduce, so re-record only from a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from run import import_program

SEEDS = 100


def main() -> None:
    import_program()
    from pensionsim import io_cli
    from workloads import DIGESTS_FILE, WORKLOADS, make_inputs, pool_digest, run_op

    out = DIGESTS_FILE.parent / "out"
    out.mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        digests[workload.name] = {}
        for seed in range(SEEDS):
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=out))
            try:
                inputs = make_inputs(workload, seed, workdir)
                entries = []
                for argv in inputs.argvs:
                    code, _, digest, err = run_op(io_cli.cli_main, argv, inputs.out, workload.command)
                    if code != 0:
                        raise SystemExit(f"{workload.name} seed {seed}: exit {code}: {err}")
                    entries.append(digest)
            finally:
                shutil.rmtree(workdir)
            digests[workload.name][str(seed)] = entries[0] if workload.pool == 1 else pool_digest(entries)
        print(f"{workload.name}: {SEEDS} seeds", flush=True)
    DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
