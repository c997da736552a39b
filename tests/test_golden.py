"""Golden outputs: SHA-256 of everything the pipeline emits on fixed inputs.

Criterion 9 compares two runs of one version.  These digests pin the output
across versions, so a refactor that changes any edge, provenance entry,
report byte or witness path shows up here.  The report is pinned twice:
without the stretch section and with it.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only for an intended output
change, and say why in CHANGES.md.

``FAILING`` pins the reports of selections the lemma audits reject: the
negative controls of ``tests/test_analysis.py`` and its random selection, on
which three lemmas fail at two different edges.  They pin each lemma's first
counterexample.
"""

import hashlib

import pytest

import test_analysis
from d8span.analysis import run_audits, witness_path
from d8span.builder import construct_d8
from d8span.cli import _serialize_edges
from d8span.pointio import RunConfig, generate
from d8span.report import report_json

CASES = {
    ('uniform-square', 3, 1): (
        "d914065e950f1a735ee355099e02834305b053aa0e35cb6e86b61c356774efb5",
        "b3fd41949af419d9817c7fb6aa4f63f85ef5003b9920c189f8104b73a11ff057",
        "ad195dbf2864617f659130a3ae53f9bfae44fa4bd6ae0f85b80ed76fcf729595",
        "478bc708c2df8f8e482112b9c6eb6128c7c8df30a0f63ab7eaad4c73fe562993",
        "ee21b9425cbe9bc78a2ef894205667d5e533bea039e84bbfcc29c39c94b86f2e",
    ),
    ('gaussian', 50, 3): (
        "7791b3776cb8bd86b383c58ef3afceeb882a35f3d223882b50871b6201a9a32c",
        "b77cd1ab67be930d0493d3fade4ace1ef2581dbd53ae1484d281b062f29442a4",
        "865cb41cd3bf1f3a9a2a65da093be7ab7cdd09462b8d15b971c46a0538163240",
        "0809ee94207b2ed9771f26819cc3f0c0bd261a81cb0dc75e59b771e8dcf4171b",
        "d28f903ad3328602bdefa275d16bd8f6b48abdda4f7bd49a5aa8a746f95f0bc9",
    ),
    ('annulus', 60, 2): (
        "edffa540cbc82a46d6d1c31beece243127b7b7523c2006c1fa11af7b214c3575",
        "50e9a254ad0b25a4ffdb434345616754b1e537d812d17d88d088471e4e5330fc",
        "75e6089423b33086f2afa36605e37b962ba65da7464c63444cc68fd6c3c9f826",
        "5a6a4251e987c4c4888f53087a2a62f60dc531f1b2dc996d5976640e92de251f",
        "7fd6df2203217777a778096dc8f563fd835b1aeb9aac6a1828bd7b054f545014",
    ),
    ('uniform-square', 260, 11): (
        "d4e691e1575c87bf9400fb138027f33f63c30fb20c4658a34258e1071ecb4376",
        "593eab35dbda6a49a37ab8748e1325b4dba2fca8040fbd3190e187f1d2fe056c",
        "5b93d6d656340f890a3e42d85f10b3a2b3e897aabb1e8a7716920f251afa3f4f",
        "db955f3233a858fd53248b145738a2d00b6fe6951a5c9eac5e325c1a8a28e36c",
        "281746d5a533c70995334fb68b10edfb97c9c586a131b6d4ece2407b062cf550",
    ),
    ('gaussian', 400, 5): (
        "9b63ffc2733efbc019429394453db77d1209d6393b001bb198ad11a544ee18d4",
        "e5fca78187c1677138247df0027665a0d7d4a1f08050870c1670e9bbe78fc514",
        "3fe6eba201656f336c7fba6dbd4f5c7418396ad6ef865720e613e80e867a09af",
        "94b17396b5cee6c23ce8a277273391a60304d175b19326ccb476db4a80354b4f",
        "cf22733f3b6888da65ec5003b98acae74e0c1e2e5830adc19aec4f41fb68207a",
    ),
    ('annulus', 500, 9): (
        "f8aa5c2557ccbcd0e75edc96c0ee3d69366eb7fcf319c7ba1a3bd04e6e80693b",
        "4b5c465e2db20de3001da3475f97d151d155263c97b9ce25ca2d2e1794ce3cca",
        "67f622f259e7a3f8d1be1c5ae6f801a59b85c9c258636f2a85e6a5b14a362cac",
        "08893cf16fd4858fd5c508c2a4c7ee8d331a6ff2aa7b95fd3748af4ba1f3f538",
        "7940b0047ff35374532cf1009f66b5fec79a53f1e2bc7ebefa1c7f5b1434790e",
    ),
    ('uniform-square', 1200, 4): (
        "177278204a4ffbc6da4833f7435cfddb8f5285bf8b115e3ec2ea95aba06470b9",
        "5e9e17814b587f1cb7c06fef88675a2f48e5ce0850580d6a4e144c2b2716f5ca",
        "eb35849ca9604c046acafbc47877cf75c1e6c212f7a289b467831382d00855fc",
        "3ece1a74a659fb4d85e0dec7bea43b4921415f52be35bb031be3e8030080d9b1",
        "f39e67198c7bafe4bcb3d3285581e509b7906bbf6982c1127ffc5962d2700c2f",
    ),
}


FAILING = {
    "canonical_path": (
        test_analysis.find_canonical_path_corruption,
        "a878079a8eafb8fbedcf5ce1400acfb9b37fa29ede52ae6fd4788ce02aed6d26",
    ),
    "wedge_angle": (
        test_analysis.wedge_violation_fixture,
        "28c85d6a2414d4466760b3aa5aa8f00d11232c2320ee908e90a622b0b6ef52f4",
    ),
    "shared_triangle": (
        test_analysis.shared_triangle_violation_fixture,
        "8339c7f4fc6757a7968915c341828c34770dc94e73be5d79b639fd1d038c9a5a",
    ),
    "anchor_cones": (
        test_analysis.anchor_cone_violation_fixture,
        "f0c403225c420660424fae0c16b675247070f8e021a30aaa6a9cd63d889169d5",
    ),
    "extremal_cone": (
        test_analysis.extremal_cone_violation_fixture,
        "6e40045671a67c126003a93fc51ac577e526148d4af25e7572d859272fe820e9",
    ),
    "random_selection": (
        test_analysis.random_selection_fixture,
        "6b120a452d7c07793e630df1eec3db481aa832aa041e7b035e56571ff49c341c",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(dist: str, n: int, seed: int) -> tuple[str, ...]:
    """(edge file, provenance, report, witness traces, report with stretch)
    digests."""
    cfg = RunConfig(n=n, seed=seed, distribution=dist)
    T, sel = construct_d8(generate(cfg))
    provenance = "".join(
        f"{u} {v}: "
        + "; ".join(
            f"{p.step} {p.apex} {p.anchor} {p.end_vertex} {p.cone}" for p in provs
        )
        + "\n"
        for (u, v), provs in sorted(sel.provenance.items())
    )
    report = report_json(run_audits(T, sel, with_stretch=False), cfg)
    witnesses = ""
    for u, v in sorted(T.edges):
        w = witness_path(T, sel, u, v)
        witnesses += f"{u} {v}: {w.vertices} {w.length!r} {w.trace}\n"
    return (
        _sha(_serialize_edges(sel)),
        _sha(provenance),
        _sha(report),
        _sha(witnesses),
        _sha(report_json(run_audits(T, sel), cfg)),
    )


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_golden_output(case):
    assert digests(*case) == CASES[case]


def failing_digest(name: str) -> str:
    T, sel = FAILING[name][0]()
    return _sha(report_json(run_audits(T, sel, with_stretch=False)))


@pytest.mark.parametrize("name", sorted(FAILING))
def test_golden_failing_report(name):
    assert failing_digest(name) == FAILING[name][1]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: (")
        for d in digests(*case):
            print(f'        "{d}",')
        print("    ),")
    for name in sorted(FAILING):
        print(f"    {name!r}: {failing_digest(name)}")
