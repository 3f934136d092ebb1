import sys
from pathlib import Path

from hypothesis import settings

# make tests/helpers.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

# Property tests run a fixed example set by default (seeded from each test,
# no example database), so a tier-1 result never depends on the run. The
# "randomized" profile draws fresh examples every run:
#     python -m pytest --hypothesis-profile randomized tests
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")
