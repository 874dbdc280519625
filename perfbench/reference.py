"""A fixed reference computation that times how fast the machine runs now.

Usage: python3 perfbench/reference.py

It imports nothing from cactusnet, so no change to the program moves it.
Its loop has the shape of batch-size-1 inference: small matrix products
and elementwise ops on arrays of a few kilobytes, with Python between
the calls.  Prints a checksum so that the work cannot be skipped.
"""

import numpy as np


def main(steps=6000):
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((72, 16)).astype(np.float32)
    w2 = rng.standard_normal((16, 8)).astype(np.float32)
    x = rng.standard_normal((64, 72)).astype(np.float32)
    acc = 0.0
    for i in range(steps):
        h = np.maximum(x @ w1, 0.0)
        y = h @ w2
        acc += float(y[i % 64].max()) + sum(range(i % 50))
    print(f"{acc:.6e}")


if __name__ == "__main__":
    main()
