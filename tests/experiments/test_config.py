"""The named experiment-scale presets and their one lookup."""

import pytest

from repro.experiments.config import SCALE_PRESETS, ExperimentScale, scale_preset


@pytest.mark.parametrize("name", ["smoke", "benchmark", "paper"])
def test_each_preset_name_builds_its_scale(name):
    assert name in SCALE_PRESETS
    assert scale_preset(name) == getattr(ExperimentScale, name)()


def test_an_unknown_name_lists_the_presets():
    with pytest.raises(ValueError, match="unknown scale preset 'huge'; "
                                         "the presets are smoke, benchmark, paper"):
        scale_preset("huge")
