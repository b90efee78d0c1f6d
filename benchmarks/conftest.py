import sys
from pathlib import Path

# the layer cases check their outputs against the test suite's oracles and
# pinned preset digests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
