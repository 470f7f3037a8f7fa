"""One hypothesis profile for the suite: derandomized, with no deadline and
no example database, so a run repeats exactly. Hypothesis's other caches go
to a temporary directory removed at exit, so a run writes nothing into the
checkout."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("regretlab", derandomize=True, deadline=None, database=None)
settings.load_profile("regretlab")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="regretlab-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
