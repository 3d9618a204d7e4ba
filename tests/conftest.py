import pytest

from qsc import qsym


@pytest.fixture
def dirt_diagonal_2(monkeypatch):
    # 2 on the diagonal of the DIRT row at (2, 1), in a copy of the cached row.
    real = qsym._dirt_row

    def perturbed(alpha):
        row = real(alpha)
        return {**row, (2, 1): 2} if alpha == (2, 1) else row

    monkeypatch.setattr(qsym, "_dirt_row", perturbed)
