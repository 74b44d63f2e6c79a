import espider


def test_every_exported_name_resolves():
    missing = [name for name in espider.__all__ if not hasattr(espider, name)]
    assert missing == []
    assert len(set(espider.__all__)) == len(espider.__all__)
