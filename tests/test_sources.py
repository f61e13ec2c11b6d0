import pathlib
import warnings

import adframe

SOURCES = sorted(pathlib.Path(adframe.__file__).parent.glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
