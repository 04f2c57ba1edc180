"""Setup shim.

The package metadata lives in ``pyproject.toml``.  This file lets
``python setup.py develop`` install the package in place where
``pip install -e .`` cannot: pip's editable install needs the ``wheel``
package, and offline environments may not have it.
"""

from setuptools import setup

setup()
