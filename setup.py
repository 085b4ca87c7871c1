"""Package metadata and console entry points (kept in setup.py so editable
installs work offline without a wheel of the build backend)."""

import os
import re

from setuptools import find_packages, setup

_here = os.path.dirname(os.path.abspath(__file__))
_readme = os.path.join(_here, "README.md")
with open(_readme) as fh:
    _long_description = fh.read()

# The version's single source is repro.__version__, read as text so building
# never imports the package (or its numpy dependency).
with open(os.path.join(_here, "src", "repro", "__init__.py")) as fh:
    _version = re.search(r'^__version__ = "([^"]+)"', fh.read(), re.MULTILINE).group(1)

setup(
    name="repro-gatekeeper-gpu",
    version=_version,
    description=(
        "From-scratch Python reproduction of GateKeeper-GPU: fast and "
        "accurate pre-alignment filtering in short read mapping"
    ),
    long_description=_long_description,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "bench": ["pytest", "pytest-benchmark"],
        # The optional compiled kernel tier (repro.filters.native); without
        # it every entry point runs on the pure-NumPy reference tier.
        "native": ["numba"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Bio-Informatics",
    ],
)
