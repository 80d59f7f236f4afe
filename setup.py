"""Packaging for the ``repro`` reproduction of ZLB.

The metadata lives here so an offline editable install works without
building a wheel::

    pip install -e . --no-use-pep517

pip's legacy path runs ``python setup.py develop``, which needs only
setuptools and can be run directly where pip also wants the ``wheel``
package.  The package has no third-party runtime dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro-zlb",
    version="1.0.0",
    description="ZLB: a blockchain that tolerates colluding majorities (reproduction)",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
