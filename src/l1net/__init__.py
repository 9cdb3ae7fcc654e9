"""L1-ball constrained dense networks: exact input derivatives,
generalization-bound auditing, and a teacher-student experiment runner.

Each public name is imported from the one module that lists it in its
``__all__``: ``l1net.net``, ``sparsity``, ``datagen``, ``evaluate``,
``bounds`` or ``cli``.  The package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
