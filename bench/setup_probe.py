"""Print the seconds a fresh interpreter takes to import bayespace and prepare a workload.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from time import perf_counter


def main():
    start = perf_counter()
    import source  # everything from here on is set-up time

    source.import_bayespace()
    import workloads

    workloads.Workload(sys.argv[1], int(sys.argv[2]), source.SCRATCH / sys.argv[1])
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
