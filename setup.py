"""Setup shim for environments without the `wheel` package.

`pip install -e .` builds an editable wheel and needs `wheel` (or
setuptools >= 70.1); without it, `python setup.py develop` installs the
same editable package. All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
