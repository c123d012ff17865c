"""Exact-arithmetic toolkit for extended affine root systems and their characters.

Names are imported from their modules (`ears.system`, `ears.characters`, ...);
`import ears` loads none of them.
"""

__version__ = "0.1.0"
