"""A function code and a channel certificate are two views of one object.

The end-to-end channel of any code preserves the preimage partition of its
function with exactly the code's error profile, and a certificate whose
edge map is scrambled can be turned back into a code by relabeling the
decoder output.
"""

import numpy as np

from lhckit import (
    Alphabet,
    FunctionCode,
    FunctionTable,
    code_error_profile,
    code_to_lhc,
    compose,
    deterministic_channel,
    lhc_to_code,
)
from lhckit.channel import Channel


def leaky(inp, out, targets, noise):
    rows = np.full((inp.size, out.size), noise / out.size)
    for i, t in enumerate(targets):
        rows[i, t] += 1 - noise
    return Channel(inp, out, rows / rows.sum(axis=1, keepdims=True))


dom = Alphabet.of_size(3, "a")
cod = Alphabet.of_size(2, "b")
mid = Alphabet.of_size(3, "x")
out = Alphabet.of_size(3, "y")
f = FunctionTable(dom, cod, (0, 1, 0))
code = FunctionCode(
    leaky(dom, mid, (0, 1, 2), 0.06),
    leaky(out, cod, (0, 1, 0), 0.04),
    f,
    leaky(mid, out, (0, 1, 2), 0.05),
)

profile = code_error_profile(code)
cert = code_to_lhc(code)
print("code error profile:  ", profile)
print("certificate error:   ", cert.lam)
print("identical:", np.array_equal(profile, cert.lam))

# Scramble the decoder by swapping its output labels; the scrambled code
# computes the wrong values, but the certificate still passes with the
# swapped edge map, and the conversion back recovers a working code.
swap = deterministic_channel(FunctionTable(cod, cod, (1, 0)))
scrambled = FunctionCode(code.encoder, compose(code.decoder, swap), f,
                         code.channel)
print("scrambled profile:   ", code_error_profile(scrambled))

from lhckit.verify import LhcCertificate
from lhckit import EdgeMap

swapped_cert = LhcCertificate(
    edge_map=EdgeMap(2, 2, (1, 0)), lam=cert.lam,
    per_vertex_success=cert.per_vertex_success, failing_edges=(),
)
recovered = lhc_to_code(swapped_cert, scrambled)
print("recovered profile:   ", code_error_profile(recovered))
