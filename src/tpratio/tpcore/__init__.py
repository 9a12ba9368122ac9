"""Exact totally positive matrices: construction from planar networks,
brackets read as the minors they name, the rotation and mirror as bracket
relabellings, and the falsifier's witnesses.

The package re-exports nothing: each public name imports from `tpratio`
or from its module (`grassmann`, `matrices`, `network`, `witnesses`)."""
