"""Exact-arithmetic computations in free algebras and coalgebras over operads."""

from .models import get_model
from .relations import check_relation, relation_names
from .idempotents import ConvolutionContext, eulerian, versal_idempotent
from .structure import check_h2, pbw_expand, pbw_reassemble, primitive_part
from .homology import homology_report

__version__ = "0.1.0"
