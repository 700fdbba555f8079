"""Joint NER + relation extraction with Fourier token mixing.

Pure-numpy implementation: a small reverse-mode autodiff tape, Fourier
mixing on np.fft, pluggable token mixers (Fourier / token-wise MLP /
windowed attention), selective pooling with a trainable polynomial distance
bias, Adam training with checkpoints, and lenient evaluation over BRAT
standoff corpora. From the command line:

    python -m jnrf train CONFIG TRAIN_DIR [--dev DIR] --out CKPT
    python -m jnrf predict CKPT DATA_DIR --out DIR
"""

__version__ = "0.1.0"
