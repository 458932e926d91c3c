"""Matrix-free estimation of tr(f(A)) by stochastic Lanczos quadrature with
computable a-posteriori error certificates.

The API lives in the modules: ``operators``, ``lanczos``, ``rational``,
``error_estimator``, ``trace_estimator``, ``oracles``, ``errors`` and the
command line in ``cli``."""

__version__ = "0.1.0"
