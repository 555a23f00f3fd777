"""Verification toolkit for interpretability logic over finite Veltman frames.

The pieces: a formula language with the binary modality ``|>`` on top of
provability logic (`formula`), a Hilbert-style proof checker
(`calculus`), bitmask frames and models (`frames`, `frameio`), forcing
and bisimulations (`semantics`), the algebraic set translation
(`algebra`), filters and the label-indexed assuring relation
(`filters`), ultrafilter extensions of finite frames with their truth
and saturation checks (`extension`), the pencil-condition
non-definability demo (`pencil`), and the desk-scale verification
scoreboard (`checks`) behind ``ilkit corpus``.
"""

from .algebra import agreement, eval_term, r_inv, r_inv_dual, s_inv, term_to_str, translate
from .corpus import corpus_models, load
from .calculus import (SCHEMAS, Proof, ProofBuilder, ProofStep, axiom_instance,
                       check_proof, derived_theorems, is_tautology,
                       match_schema, proof_from_dict, proof_to_dict)
from .extension import (ClassicalUE, ResourceLimitError, UEFrame, UEModel,
                        UEWorld, build_ue, build_ue_model,
                        check_label_saturation, check_saturation,
                        check_truth_theorem, classical_ue,
                        find_assured_successor, ue_force, ue_to_dict,
                        ue_to_dot, witness_from_negated)
from .filters import (Filter, Ultrafilter, all_assuring_triples,
                      all_proper_filters, all_ultrafilters, assuring,
                      assuring_family, b_set, f_box, generate_filter, has_fip)
from .formula import (Atom, Bottom, Box, Formula, Implies, ParseError, Rhd,
                      TOP, BOT, atoms, conj, dia, disj, enumerate_formulas,
                      iff, neg, parse, size, to_str)
from .frameio import FrameFormatError, load_model, parse_frame_text, to_dot
from .frames import (CompletionError, Frame, Model, Verdict, WorldSet,
                     all_frames, chain, complete, fan, tree, validate)
from .pencil import (DemoReport, PencilVerdict, build_demo_pair,
                     nondefinability_demo, pencil_check, transfer_valuation)
from .semantics import (BisimVerdict, FrameVerdict, check_bisim, equiv_up_to,
                        force, frame_valid, max_bisim)

__version__ = "0.1.0"
