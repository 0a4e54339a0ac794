"""The fixed corpora the corpus-wide differentials run on: the
motivating example, every micro case and every securibench case."""

from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bench.securibench import CASES
from repro.modeling import default_natives
from repro.pointer import ChaoticOrder, ContextPolicy


def corpus():
    programs = [("micro:motivating", MOTIVATING)]
    programs += [(f"micro:{name}", src)
                 for name, (src, _) in MICRO_CASES.items()]
    for cat, cases in CASES.items():
        programs += [(f"securibench:{cat}:{name}", src)
                     for name, (src, _) in cases.items()]
    return programs


CORPUS = corpus()
CORPUS_IDS = [name for name, _ in CORPUS]


def solve_with(cls, prepared):
    analysis = cls(prepared.program, ContextPolicy(),
                   natives=default_natives(), order=ChaoticOrder())
    analysis.solve()
    return analysis
