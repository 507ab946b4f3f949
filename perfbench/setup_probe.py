"""Print one workload's set-up time in this fresh interpreter, the import
of the package plus the workload's first build, and then the median time of
the calibration loop run right after it in the same interpreter, both in
seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py reproduce
"""
import sys
import time

t0 = time.perf_counter()
workload = sys.argv[1]
if workload == "reproduce":
    import steanesim.cli  # noqa: F401 - every command pays this import
    from steanesim.builders import build_full_ec_circuit
    build_full_ec_circuit()
elif workload == "variant-sweep":
    from steanesim import circuits, depth, faults  # noqa: F401 - the layers an op uses
    from steanesim.builders import build_full_ec_circuit
    build_full_ec_circuit()
elif workload == "threshold-sweep":
    import steanesim.threshold  # noqa: F401
    from steanesim.depth import block_analysis
    block_analysis("data")
    block_analysis("aux")
else:
    sys.exit(f"unknown workload {workload!r}")
elapsed = time.perf_counter() - t0
from run import calibration_loop  # noqa: E402 - imported after the timed region

print(elapsed, sorted(calibration_loop() for _ in range(5))[2])
