import sys
from pathlib import Path

# the benchmark's tests import scmux from this checkout, as its child processes do
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
