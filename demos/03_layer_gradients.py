"""One deformable Gabor layer: modulation, two-stage forward, two backward modes.

The exact mode is verified here against central finite differences; the
approximate "paper" mode is compared against it to show where its
factored update rules diverge from the true gradient.
"""

import numpy as np

from deformgabor import (LayerShape, dgconv_backward, dgconv_forward, fd_grad,
                         init_params, make_bank, modulate_conv, modulate_gabor, rel_err)

rng = np.random.default_rng(1)
bank = make_bank(U=4, H=3)
shape = LayerShape(U=4, V=2, H=3, N=2, M=2, N0=2, M0=2)
p = init_params(rng, shape, bank)
p.masks[:] = rng.uniform(0.5, 1.5, size=p.masks.shape)
p.offset_pred.bias[:] = rng.uniform(0.2, 0.4, size=18)  # fractional sampling points

dhat = modulate_conv(p.conv_filters, p.masks)
ghat = modulate_gabor(bank, p.masks)
print(f"modulated filters Dhat: {dhat.shape}  (M,N,U,V,H,H)")
print(f"adaptive Gabor Ghat:    {ghat.shape}  (V,U,H,H)")

x = rng.standard_normal((4, 2, 8, 8))
y, cache = dgconv_forward(x, p, stride=1, pad=1)
print(f"forward: input {x.shape} -> output {y.shape}  (U,M,Ho,Wo)")

gy = rng.standard_normal(y.shape)
exact = dgconv_backward(gy, cache, mode="exact")
paper = dgconv_backward(gy, cache, mode="paper")

def loss():
    return float(np.sum(dgconv_forward(x, p, stride=1, pad=1)[0] * gy))

print("\nexact mode vs central differences, largest relative error per tensor:")
for key, arr in (("conv_filters", p.conv_filters), ("masks", p.masks),
                 ("offset_bias", p.offset_pred.bias)):
    print(f"  {key:<13} {rel_err(exact[key], fd_grad(loss, arr)):.1e}")

cos = {}
for key in ("masks", "conv_filters"):
    a, b = exact[key].ravel(), paper[key].ravel()
    cos[key] = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
print("\npaper-mode update directions vs exact gradients (cosine):")
print(f"  masks:        {cos['masks']:+.4f}   (approximate: drops the deformable-path term)")
print(f"  conv filters: {cos['conv_filters']:+.4f}   (approximate: collapses the mask sum)")
print("offset and input gradients are identical in both modes:",
      np.array_equal(exact["input"], paper["input"]))
