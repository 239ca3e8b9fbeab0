"""Privacy budgeting, joint parameter optimization, and a desk-scale
simulator for federated learning with quantized Binomial-mechanism updates
over capacity-limited wireless links."""
