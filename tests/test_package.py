import swedge


def test_every_name_in_all_resolves_after_import():
    assert [name for name in swedge.__all__ if not hasattr(swedge, name)] == []
