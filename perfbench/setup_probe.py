"""Set-up a benchmark user pays: a fresh interpreter imports dualgeo and builds
one workload's models and inputs. `run.py` times this script end to end.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from run import OUT, load_program

if __name__ == "__main__":
    load_program()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), OUT)
