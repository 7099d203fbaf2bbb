import re
from types import SimpleNamespace

import numpy as np

from conftest import blas_kernel, blas_line


class TestBlasLine:
    def test_names_numpys_blas_and_its_kernel(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        line = blas_line()
        assert re.fullmatch(r"BLAS: .+ .+, kernel \S+", line)
        assert line.startswith(f"BLAS: {blas['name']} {blas['version']}, kernel ")
        if blas["name"] == "scipy-openblas":
            assert not line.endswith(" unknown")

    def test_kernel_is_what_the_library_reports(self):
        class Corename:
            restype = None

            def __call__(self):
                return b"Haswell"

        assert blas_kernel(SimpleNamespace(scipy_openblas_get_corename64_=Corename())) == "Haswell"

    def test_kernel_is_unknown_without_the_query(self):
        assert blas_kernel(SimpleNamespace()) == "unknown"
