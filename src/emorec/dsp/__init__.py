"""Signal-processing kernels: FFT/STFT, mel cepstra, wavelets, descriptors."""
