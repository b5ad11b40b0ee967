"""Deformable Gabor convolution layers with hand-derived gradients.

Building blocks: a minimal float64 tensor toolkit (`tensor`), fixed
orientation filter banks (`gabor`), deformable bilinear sampling
(`deform`), the two-stage modulated layer (`layer`), weakly supervised
bag losses (`mil`), metrics, optimizers and the gradient-check harness
(`train`), synthetic data and corruptions (`data`), small network
stacks (`model`), and a command-line front end (`cli`).
"""

from .gabor import GaborBank, identity_bank, make_bank
from .layer import (DGConvParams, LayerShape, dgconv_backward, dgconv_forward,
                    expand_orientation, init_params, modulate_conv,
                    modulate_gabor, param_count)
from .deform import (OffsetPredictor, bilinear_sample, deform_conv_backward,
                     deform_conv_forward, predict_offsets, zero_predictor)
from .metrics import accuracy, auc
from .mil import (PatchProbabilities, bag_prob, class_weights, mil_loss, miml_loss,
                  patch_probs, weighted_mil_loss)
from .model import Model, ModelConfig, matched_plain_config, total_params
from .tensor import conv2d, conv2d_naive, load_container, save_container
from .train import (OptimizerConfig, adam_step, fd_grad, grad_check, rel_err, sgd_step,
                    train_model)

__version__ = "0.1.0"
