from deformgabor.train import fd_grad, rel_err  # noqa: F401  (test files import them from here)
