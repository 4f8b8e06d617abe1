from setuptools import setup

# The library has no third-party runtime dependency: the native backend
# needs only a host C compiler and degrades to the flat interpreter
# without one.
setup()
