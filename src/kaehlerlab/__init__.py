"""Numerical verification of extrinsic Kaehler submanifold geometry.

The package evaluates concrete holomorphic immersions into complex space
forms on truncated Taylor jets, assembles every frame-resolved tensor of
the theory (second fundamental form, shape operators, normal connection,
normal and intrinsic curvature, and their first covariant derivatives),
and checks the structural identities relating them at randomly sampled
points.  The interface is the ``kaehlerlab`` command (``cli``) and the
modules listed in ``__all__``; nothing is re-exported here.
"""

__all__ = ["ambient", "cli", "identities", "jets", "recurrence", "submanifold"]

__version__ = "0.1.0"
