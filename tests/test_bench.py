import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_benchmark_short_mode_passes():
    """``bench/run.py --short`` runs every workload at a small size, checks
    each answer against the benchmark's own reference deciders and requires
    work counts that repeat; it exits nonzero on any failure."""
    proc = subprocess.run([sys.executable, str(BENCH), "--short"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
