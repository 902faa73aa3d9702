"""The package's public names."""
import regeval


def test_every_exported_name_exists_once():
    assert len(regeval.__all__) == len(set(regeval.__all__))
    assert [name for name in regeval.__all__ if not hasattr(regeval, name)] == []
