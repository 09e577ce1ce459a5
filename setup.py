"""Package metadata and install shim.

There is no ``pyproject.toml``: all metadata lives here, and pip falls
back to the classic ``setup.py develop`` code path for editable
installs, which needs no ``wheel`` package.  The version is read from
``repro.__version__`` in ``src/repro/__init__.py``, its one source.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled cores build at run time from the C sources that
    # ``repro.core.fastcore._SOURCES`` names, so every one must ship.
    package_data={"repro.core": ["*.c", "*.h"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
