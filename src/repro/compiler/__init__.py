"""Compiler back ends: ClightTSO-flavoured C (§5, :mod:`.cbackend`) and
executable Python (SC / TSO-faithful modes, the Figure 12 compilation
paths, :mod:`.pybackend`), plus the compiled step relation the explorer
runs (:mod:`.stepc`).  Import the submodule you need: the package
imports none, so loading the stepper loads neither back end."""
