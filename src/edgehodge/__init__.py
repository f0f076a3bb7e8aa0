"""Perversity-indexed intersection cohomology for simple edge spaces.

Subpackage map:

- ``cochain``    exact rational complexes, ranks, tensor/cone constructions
- ``stratified`` edge-space models, cone truncation, Mayer-Vietoris engine
- ``weights``    weight-to-perversity dictionary and complete-metric verdicts
- ``spectral``   indicial roots, critical windows, self-adjointness predicates
- ``fibredec``   discrete fibre Hodge Laplacians and their spectra
- ``radial``     cone-level radial lab: homotopy operators and their bound,
                 membership tests, indicial exponents checked exactly
- ``cli``        the ``edgehodge`` command line front end
"""

__version__ = "0.1.0"
