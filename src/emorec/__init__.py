"""emorec: deterministic speech emotion recognition experiments.

Decoding, augmentation, MFCC/wavelet features, and from-scratch neural
training with replayable seeds end to end.
"""
