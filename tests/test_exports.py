"""The package's public names."""
import inspect
import re
from pathlib import Path

import regeval


def test_every_exported_name_exists_once():
    assert len(regeval.__all__) == len(set(regeval.__all__))
    assert [name for name in regeval.__all__ if not hasattr(regeval, name)] == []


def test_labels_and_masks_reach_evaluate_pair_through_fixed_side():
    assert "FixedSide" in regeval.__all__
    assert not {"labels", "mask"} & set(inspect.signature(regeval.evaluate_pair).parameters)


def test_readme_lists_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    exports = readme.split("The package exports", 1)[1].split("\n\n", 2)[1]
    assert sorted(set(re.findall(r"`(\w+)`", exports))) == sorted(regeval.__all__)
