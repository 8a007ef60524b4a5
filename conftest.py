import sys
from pathlib import Path

# Make the src layout importable without an install.
sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

try:
    from hypothesis import settings
except ImportError:  # hypothesis is an optional test dependency
    pass
else:
    # property suites draw the same examples on every run, keep no example
    # database and have no per-example time limit, so a slow host cannot
    # make them flaky
    settings.register_profile("diracmech", derandomize=True, deadline=None, database=None)
    settings.load_profile("diracmech")
