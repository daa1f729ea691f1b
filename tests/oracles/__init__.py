"""Reference implementations that the product's fast paths are pinned against.

Each oracle is the straightforward version a fast path replaced, kept
verbatim so differential tests can assert the fast path gives the same
answer bit for bit.
"""
