import pathlib
import subprocess
import sys
import warnings

import adframe

SOURCES = sorted(pathlib.Path(adframe.__file__).parent.glob("*.py"))


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_package_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from adframe import build_ado, make_space, validate_adframe\n"
        "frame = build_ado(make_space(2, [[], [1], [0, 1]], pairs=[[1, 0]]))\n"
        "assert validate_adframe(frame).ok\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
