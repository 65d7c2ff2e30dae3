"""Artifact golden digests: the `.rtb` and JSON bytes are pinned.

Table fill now writes the code arrays directly and the writers emit
them without per-cell encoding, but the artifacts are the same bytes as
before: ``BINARY_FORMAT_VERSION`` 3 and JSON ``FORMAT_VERSION`` 4 need
no bump.  The SHA-256 digests below are of the LALR(1) artifacts that
the per-cell dict fill and writers produced, for every corpus grammar
plus two members of the size families.  Round trips (JSON load -> save,
binary load -> save) must reproduce the same bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.grammars import corpus
from repro.grammars.families import keyword_statement_family, nullable_chain_family
from repro.tables import build_lalr_table
from repro.tables.binfmt import (
    BINARY_FORMAT_VERSION,
    load_binary_table,
    save_binary_table,
    table_to_bytes,
)
from repro.tables.serialize import FORMAT_VERSION, load_table, save_table

#: grammar -> (sha256 of the .rtb artifact, sha256 of the JSON artifact).
GOLDEN = {
    "lr0_demo": ("46fd13498b19cd8003d63c8075722af47522e50f91282521bb7fc225a7df67dd", "732c593861451c4f1123a6385eedb6ffc5f2d527e643b71aaae8ccdae97d3558"),
    "slr_not_lr0": ("1ebf70d5abceaa4187e57bbf38167ea01509ad0b45f6cf4caaddd1db493bdd9b", "b5f5448a2a8d9c67c125b71e6cdefa2a9816f4b033277e75268e7a674e640e64"),
    "expr": ("fdc9bb034e91691b428f3f91209eaa840e6bb5e060630f8f1c9222b95ce1c460", "bbe15823274fe70dfa2d50a13d14800ad70c738bd6e9cdb9173934614bf869c2"),
    "lalr_not_slr": ("3aeba165436acaece57160f5bbec089f349b287a3f08cca3a3b42af8c56579cd", "9b25c2f063b441dbc0eb2dfd82d6e1c561cc9e648150b242decf2ffe58f25578"),
    "lr1_not_lalr": ("57f1d11edb7befad3abdb9d0294d539a0d5ba90bcf46538a896ab27fde83b4dd", "2d0c79a9a207c4613d64313da128adbc319d89ba724fd2dd771d8a96e636faed"),
    "dangling_else": ("335cecf49eb3db95081cbd19eb375eea470903c28e3344eebc1c818fcae9262f", "4fe5bf759abbb68af73453ca6cc1d8c34f4891d742e488592d0626a16bdef4d6"),
    "palindrome": ("e0387c6ad27ba607e5d4e0de5681a545ac5eb9d142c2af12753f6a9e7155184f", "e5bfac6b230b03344dcf29ba35b2dd8afb1ce9241545d2a0032734bfbe73e44b"),
    "reads_cycle": ("c4e3373d481d234917a552e6bba0eaa4bba20cb63f20f3884f0b01ee90014988", "f4569900235fcd7f666b8f7feb2cd3b2cb44b903bc77ceddbe77506c4a800933"),
    "epsilon_heavy": ("86fd7b7e0e16639019d1a29ed07e5a94aa8f78952b5fce945a105991cccb2296", "a5a61189bc408e681dd58c4ebe33d76762810aa60188536a71e6bf1be9609cf0"),
    "unit_chain": ("fc34825265af278f5c62a64c7bf80694b898164da3383e05370961e826776060", "adf77c7e7be7c96c6ff8625d7b14362286765ca4659158d37b923cc8890df2c8"),
    "json": ("84bcfe22bead14d053541eefc17b32070b5dd8672a77187e0e4015aa7a5bcc76", "d758428728c9a88d35178c557bb6d83c97cb76c3576954a0541250b852d74b94"),
    "mini_pascal": ("6ad16f9d3af9a8d8862f2132ea45142693a4b15dc416b2921da0bcdd9939df25", "4abd43807c676599bcf0bb9d9ce4450d5fd3f61fc7b6b1a1793eebc0cf105617"),
    "mini_pascal_det": ("eed756d4bcf1d5330d24b62e5da22e843fc9e0deabc77e32c9af2875726d1191", "8adb7455fda31a3cef00ea33cf6d6853faf5a284a8823597fcd5016c8bc9bb75"),
    "mini_c": ("f493097a3f52b78b8e41215e0531f76010b56abefcfe02460fb76ed8d75fc9df", "b13c56a1100c1a0475b24bc0031c0be132d4bf3d8bcb54b37d9ba3e31e56e584"),
    "toy_java": ("5eb2b4bdde0dffb95d8b8c9f2b3596f522f4427fda4e9ad02e659d54f688bf41", "a7eeadcc6ed8b000aa96e1ac77db58ac64d644f65a21b8750cc4eeab75f10d5e"),
    "algol_like": ("fa6228ad0efb5e47305289fa600e778ef946b6eb154758979d88885d25b33d69", "231888ff87e87619a182f6c05bd1216f6c486e51e8c9780188d286ad374fb6c3"),
    "expr_prec": ("ce930cb51dabb0e4ce46cf8488f17dbea3df3360c5d6214f7a046f908d896782", "8f1a0970b1c36600a5b2156938f570dc3a76d6b72c62a3d4098e86d57703c0cf"),
    "lua_like_chunks": ("5110706fee65604af3791f93a742bb7155a2c5d67a152d8a695be5310d974a45", "7051ecd71649de3e5580528b6a01876d5395332dc58ac9587814064bc46a6caa"),
    "nqlalr_trap": ("dd6ed8acc0b26d0b346ccb80f99ca436c728f480bc48f3d739d64d8975d36306", "0af17a9c0382249ce419c33058c45a5a30f61abd7dc78001b8739245a731f5f5"),
    "lvalue": ("80b7cb37a1a6c0053382d0f1314ea917f87f9c01f21cbc2fa064f8c67fe14daf", "26838f4d58c5d6718262bfe30885cb17d248eef47c2975d4719b9a9c218f70e7"),
    "keyword_statement_family(200)": ("f371691631dc3da5848c40edf246445ea668693a77dbd2e98c3582922cd12aa9", "ca243a7b5d26b2b2b70bf31d964fde3640c337c2296120a100adacd3e9538572"),
    "nullable_chain_family(50)": ("94fcdc4a5d3c3e10c4c181f4877b91cfee901cd082b14d0247969e1e9c9d1fb8", "f386bdb7f259f267a46a7e30d66360d405e4801ef66c3e557db998964b820ef6"),
}

GRAMMARS = {name: (lambda name=name: corpus.load(name)) for name in corpus.names()}
GRAMMARS["keyword_statement_family(200)"] = lambda: keyword_statement_family(200)
GRAMMARS["nullable_chain_family(50)"] = lambda: nullable_chain_family(50)


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_format_versions_unchanged():
    assert BINARY_FORMAT_VERSION == 3
    assert FORMAT_VERSION == 4


def test_every_corpus_grammar_is_pinned():
    assert sorted(GOLDEN) == sorted(GRAMMARS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes_match_golden(name, tmp_path):
    grammar = GRAMMARS[name]().augmented()
    table = build_lalr_table(grammar)
    binary_digest, json_digest = GOLDEN[name]

    rtb = tmp_path / "table.rtb"
    size = save_binary_table(table, str(rtb))
    assert size == rtb.stat().st_size
    assert _digest(rtb) == binary_digest
    assert hashlib.sha256(table_to_bytes(table)).hexdigest() == binary_digest

    js = tmp_path / "table.json"
    save_table(table, str(js))
    assert _digest(js) == json_digest

    # Reloaded tables write the same bytes again.
    again_js = tmp_path / "again.json"
    save_table(load_table(str(js), grammar), str(again_js))
    assert _digest(again_js) == json_digest
    loaded = load_binary_table(str(rtb), grammar)
    try:
        again_rtb = tmp_path / "again.rtb"
        save_binary_table(loaded, str(again_rtb))
        assert _digest(again_rtb) == binary_digest
    finally:
        loaded.close()
