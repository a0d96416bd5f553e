"""From-scratch neural-network engine: layers, Adam, training, checkpoints."""
