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
    # The compiled cores (single-leader, multi-leader consensus and
    # clustering) build from their C sources at run time.
    package_data={
        "repro.core": ["_fastcore.h", "_fastcore.c", "_slcore.c", "_mlcore.c", "_clcore.c"]
    },
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
