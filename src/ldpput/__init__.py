"""Exact privacy-utility trade-offs for local differential privacy on
finite alphabets.

The package represents private channels as exact rational matrices,
reduces the search for optimal ones to a polytope of subset weights
(collapsed onto orbits when a symmetry group acts; the trivial group
gives the full polytope), and minimizes decision risks over it by
vertex scan, exact LP, or closed form.  Each name is imported from the
submodule that defines it, such as `ldpput.channels.PrivacyLevel`.
"""

__version__ = "0.1.0"
