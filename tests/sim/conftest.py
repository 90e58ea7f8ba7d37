"""Hypothesis profiles of the kernel tests.

Tier-1 runs each differential kernel test at ``TIER1_EXAMPLES`` examples
(named in each test module).  CI runs the differential test and the
old-station oracle again under ``--hypothesis-profile=ci``, which raises
the count to 3,000.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
