"""reclab: exact recurrence laboratory.

Distance-graph colorability certificates, frequency-set arithmetic over
exact rationals and quadratic surds, and finite-horizon experiments on
rotations and indicator subshifts.
"""
