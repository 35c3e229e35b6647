"""The SeqLock record protocol has one home.

The bytes of a record — ``[version 8B][body]``, odd = writer in flight,
a unique odd token = a named holder — are the whole synchronisation
protocol between clients, spoken by ``coord``, ``kv``, ``txn``,
``baselines`` and the server-op executor.  Each of its facts is written
once: the byte split and the RSan sync key in ``datapath/ops.py``
(dependency-free, so the executor can import them), the token mint in
``coord/seqlock.py`` over the sequence ``RStoreClient`` declares.  A
second spelling is how protocols drift: a sync key that differs in one
place silently drops happens-before edges, and mode equivalence would
still pass.
"""

import ast
from pathlib import Path

from repro.baselines import TwoPhaseLocking, twopl
from repro.cluster import build_cluster
from repro.coord.seqlock import mint_token
from repro.kv import RKVStore
from repro.simnet.config import MiB
from repro.txn import TxnRuntime

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the record's bytes and clock key
BYTES_HOME = "datapath/ops.py"
#: the token mint, over the sequence ``core/client.py`` declares
TOKEN_HOME = "coord/seqlock.py"


def _is_word(node) -> bool:
    """``WORD``, ``_WORD``, ``ops.WORD`` ... as a slice bound."""
    name = getattr(node, "id", None) or getattr(node, "attr", "")
    return name.endswith("WORD")


def _leading_word_decodes(tree):
    """``int.from_bytes(<blob>[:WORD], ...)`` calls: a record split."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "from_bytes" and node.args
                and isinstance(node.args[0], ast.Subscript)
                and isinstance(node.args[0].slice, ast.Slice)
                and node.args[0].slice.lower is None
                and _is_word(node.args[0].slice.upper)):
            yield node.lineno


def test_record_protocol_has_one_home():
    strays = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        tree = ast.parse(text)
        if rel != BYTES_HOME:
            strays += [f"{rel}:{node.lineno}: \"seqlock\" key literal"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Constant)
                       and node.value == "seqlock"]
            strays += [f"{rel}:{line}: version-word split of a blob"
                       for line in _leading_word_decodes(tree)]
        if rel != TOKEN_HOME:
            if "_TOKEN_BASE" in text:
                strays.append(f"{rel}: _TOKEN_BASE")
            # the sequence is declared by the client and advanced by the
            # mint: nobody else assigns it
            strays += [
                f"{rel}:{node.lineno}: writes token_seq"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "token_seq"
                and isinstance(node.ctx, ast.Store)
                and rel != "core/client.py"]
        if "_txn_token_seq" in text:
            strays.append(f"{rel}: _txn_token_seq")
    assert strays == []
    # and the homes do hold them
    ops_text = (SRC / BYTES_HOME).read_text()
    assert "def split(" in ops_text and "def sync_key(" in ops_text
    assert "def mint_token(" in (SRC / TOKEN_HOME).read_text()


def test_occ_and_2pl_tokens_never_collide_and_share_one_sequence(monkeypatch):
    cluster = build_cluster(num_machines=3, server_capacity=16 * MiB)
    client = cluster.client(1)
    assert client.token_seq == 0  # declared state, not a getattr default
    minted = []
    monkeypatch.setattr(
        twopl, "mint_token",
        lambda *args, **kw: minted.append(mint_token(*args, **kw))
        or minted[-1])

    def app():
        store = yield from RKVStore.create(client, "tokens", slots=16)
        yield from store.put(b"k", b"v")
        occ, locking = TxnRuntime(client), TwoPhaseLocking(client)
        tokens = []
        for _round in range(20):
            tokens.append(occ.begin().token)
            yield from locking.run(store, [b"k"], lambda values: {})
        return tokens

    occ_tokens = cluster.run_app(app())
    # the table's put locked its slot with a token from the same sequence
    assert len(minted) == 20 and client.token_seq == 1 + 40
    tokens = occ_tokens + minted
    assert len(set(tokens)) == 40
    assert all(token % 2 == 1 and token > 1 << 62 for token in tokens)
    # disjoint at any sequence number: each protocol mints under its own
    # space bit, over the same host and sequence fields
    assert {token >> 61 & 1 for token in occ_tokens} == {0}
    assert {token >> 61 & 1 for token in minted} == {1}
