"""The package's export list: __all__ and the public names it imports agree."""

import inspect

import relaxbound


def test_every_exported_name_resolves():
    assert len(set(relaxbound.__all__)) == len(relaxbound.__all__)
    missing = [name for name in relaxbound.__all__ if not hasattr(relaxbound, name)]
    assert missing == []
    star = {}
    exec("from relaxbound import *", star)
    assert set(relaxbound.__all__) <= set(star)


def test_every_public_class_and_function_is_exported():
    public = {name for name, value in vars(relaxbound).items()
              if not name.startswith("_")
              and (inspect.isclass(value) or inspect.isfunction(value))}
    assert public - set(relaxbound.__all__) == set()
