"""Package metadata and install shim.

There is no ``pyproject.toml``: all metadata lives here, and pip falls
back to the classic ``setup.py develop`` code path for editable
installs, which needs no ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled cores build at run time from the C sources that
    # ``repro.core.fastcore._SOURCES`` names, so every one must ship.
    package_data={"repro.core": ["*.c", "*.h"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
