"""alertsift: provenance-guided suppression of false-positive monitoring alerts.

Five processing layers (record assembly, threshold detection, specialist
routing, six domain rule evaluators, weighted conflict resolution) plus a
deterministic synthetic scenario generator and an evaluation harness. The
submodules are the API; import each name from the module that defines it.
"""

# perfbench/test_perfbench.py asserts that alertsift.evaluate is this function.
from .evaluate import evaluate

__version__ = "0.1.0"
