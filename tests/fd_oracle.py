"""Central-difference gradient oracle for the encoder's analytic backprop."""


def finite_difference_grad(loss_fn, model, eps=1e-5):
    """Central-difference gradient of loss_fn per scalar parameter, as a
    `model.params.zeros_like()` set; nudges one element of
    `model.params.flat` at a time."""
    flat = model.params.flat
    grads = model.params.zeros_like()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        up = loss_fn(model)
        flat[idx] = orig - eps
        down = loss_fn(model)
        flat[idx] = orig
        grads.flat[idx] = (up - down) / (2.0 * eps)
    return grads
