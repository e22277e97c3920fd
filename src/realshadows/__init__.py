"""Classical shadow tomography with orthogonal-group (real) randomized
measurements: channels, estimators, and variance validation at desk scale."""

__version__ = "0.1.0"
