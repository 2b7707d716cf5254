"""Legacy setup shim so `python setup.py develop` works offline
(environments without the `wheel` package cannot do PEP-660 editable
installs; `pip install -e .` uses the pyproject metadata when wheel is
available)."""
from setuptools import setup

setup()
