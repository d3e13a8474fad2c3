"""Set-up probe: the work between a fresh interpreter and the first timed item.

``run.py`` starts this script in a new interpreter several times per run.
It imports the package from the checkout, builds the workload's seeded
inputs and prints one JSON line with the time of each part: the parent
stops its clock at that line.  Then it times ``CHUNKS`` reference chunks
(``calibrate``) on the same thread, prints their seconds as a second JSON
line, and exits.

    python3 bench/probe.py <workload> <seed>
"""

import json
import sys
import time

CHUNKS = 5


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import layout

    layout.use_checkout_sources()
    import mpsys

    layout.check_imported(mpsys)
    imported = time.perf_counter()
    import workloads

    workloads.inputs(workloads.WORKLOADS[workload], seed)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}),
          flush=True)
    import calibrate

    calibrate.warm_up()
    print(json.dumps([calibrate.chunk() for _ in range(CHUNKS)]), flush=True)


if __name__ == "__main__":
    main()
