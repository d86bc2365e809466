"""One benchmark repetition, run in a fresh interpreter.

Usage: python3 child.py <checkout> <out-dir> <spec-json>

The spec gives the CLI argument lists to run and whether to trace. The child
imports scmux from <checkout>/src, runs each argument list through
`scmux.cli.main` (the entry point the scripts/ drivers use), and prints one
JSON line: set-up and timed-section seconds, the calibration seconds, peak
resident memory, and each call's exit code and CSV text.

The calibration is a fixed loop that runs no scmux code. It runs once just
before the timed section and once just after it, so the parent can rescale
the CPU time of the set-up and of the timed section to a reference host
speed: a shared host's speed drifts by tens of percent from minute to
minute, and the program's time and the loop's time drift together.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def calibrate() -> float:
    """CPU seconds of a fixed loop that mixes interpreter work with small
    numpy calls, as the program does."""
    import numpy as np

    start = time.process_time()
    x = 0
    for j in range(400_000):
        x = (x * 1103515245 + j) & 0xFFFF
    rng = np.random.default_rng(0)
    for _ in range(400):
        a = rng.random(8192)
        x += int(np.argsort(a)[0]) + int((a < 0.5).sum())
    for _ in range(3000):
        a = rng.integers(0, 512, 64)
        x += int((a < 200).sum()) + sum(int(v) & 7 for v in a[:16])
        x += len({k: 2 * k for k in range(20)})
    if x < 0:  # never true; keeps the loop's result alive
        print(x)
    return time.process_time() - start


def main() -> int:
    root, out_dir, spec = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(root / "src"))
    import scmux
    import scmux.cli

    setup_s = time.perf_counter() - t0
    setup_cpu_s = time.process_time() - c0
    if not Path(scmux.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"scmux imported from {scmux.__file__}, not from the checkout", file=sys.stderr)
        return 2

    tracer = uninstall = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        uninstall = tracer.install()

    calibration_s = calibrate()
    wall_s = cpu_s = 0.0
    outputs = []
    for i, argv in enumerate(spec["argv"]):
        out = out_dir / f"{spec['tag']}-{i}.csv"
        out.unlink(missing_ok=True)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = scmux.cli.main([*argv, "--out", str(out)])
        except Exception:  # a crash fails this call's points; the others still run
            traceback.print_exc()
            rc = None
        wall_s += time.perf_counter() - start
        cpu_s += time.process_time() - cpu_start
        outputs.append({"rc": rc, "text": out.read_text() if rc == 0 else None})

    calibration_s += calibrate()
    result = {
        "calibration_s": calibration_s,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs,
    }
    if tracer is not None:
        uninstall()
        result["layers"] = tracer.metrics()
        result["traced_cycles"] = tracer.counts["cycles"]
        tracer.dump(out_dir / f"spans-{spec['tag']}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
