import types

import fscore as fs

REMOVED = ("RegressionEstimate", "SuiteReport", "DensitySpec", "compute_bprime")


def test_all_lists_exactly_the_public_names():
    assert len(fs.__all__) == len(set(fs.__all__))
    for name in fs.__all__:
        assert hasattr(fs, name), name
    public = {name for name, value in vars(fs).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(fs.__all__) == public
    assert not public & set(REMOVED)
