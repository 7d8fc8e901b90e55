"""The two-pass closing of a scan's arc, kept as the test oracle of each
backend's close: the product P * pi_x, its conditional expectation onto
the open labels 1..top but label, then the relabeling that shifts label
to top and the labels above it down one.  It calls only the backend's
expect and relabel and the group-algebra product."""


def closing_maps(label, top):
    """The labels kept and the shifting relabeling of closing label under
    top."""
    keep = tuple(j for j in range(1, top + 1) if j != label)
    shift = {j: top if j == label else j - 1 for j in range(label, top + 1)}
    return keep, shift


def two_pass_close(backend, P, pi_x, label, top):
    keep, shift = closing_maps(label, top)
    R = backend.expect(keep, P * pi_x)
    if label < top:
        R = backend.relabel(shift, R)
    return R
