"""Make the benchmark's modules importable the way ``measure.py`` sees them."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))
