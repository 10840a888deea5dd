"""Byte pins of the rebalance chain: oversampled datasets, diagnostics,
imbalance reports, chords and the SCUMBLE comparison table.

The digests were recorded from the implementation that scored SCUMBLE and
counted co-occurrence once per instance and searched mlsmote neighbours one
seed at a time. Any change to the outputs, however small, shows here.
"""

import hashlib
import io
import json

from mlimb import cooccurrence, metrics, resampling
from mlimb.data import write_dataset
from mlimb.synth import SynthConfig, generate

CORPORA = {
    # Flat label frequencies: minority bags of 246, 274 and 313 rows, so the
    # neighbour search crosses distance-block edges, over 63 label sets.
    "flat": SynthConfig(n_instances=1200, n_labels=6, zipf_exponent=0.6,
                        fingerprint_width=48, graph_nodes_range=None,
                        cooccurrence_boost=0.3, seed=3),
    # The README's generator settings at a smaller size, graphs included.
    "readme": SynthConfig(n_instances=400, n_labels=20, zipf_exponent=1.2,
                          cooccurrence_boost=0.3, seed=7),
}
RUNS = [(method, p) for method in ("proposed", "mlsmote") for p in (0.5, 1.0)]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def chain_digests(config: SynthConfig) -> tuple[dict[str, str], dict[str, int]]:
    """SHA-256 of every output of the chain on one corpus, plus each mlsmote
    run's distinct_synthetics (not part of the recorded documents)."""
    corpus = generate(config)
    subset = cooccurrence.random_label_subset(corpus.vocabulary, 4, config.seed)
    names = corpus.vocabulary.names
    digests: dict[str, str] = {}
    distinct: dict[str, int] = {}
    snapshots = {}
    for method, p in RUNS:
        run = f"{method}_p{p}"
        rc = resampling.ResampleConfig(method=method, p=p, r=2, k=5, seed=1)
        outcome = resampling.oversample(corpus, rc)
        buffer = io.StringIO()
        write_dataset(outcome.dataset, buffer)
        digests[f"{run}/dataset"] = _sha(buffer.getvalue())
        diagnostics = outcome.diagnostics_document(rc)
        if method == "mlsmote":
            distinct[run] = diagnostics.pop("distinct_synthetics")
        digests[f"{run}/diagnostics"] = _sha(_canonical(diagnostics))
        report = metrics.imbalance_report(outcome.dataset)
        digests[f"{run}/report"] = _sha(report.to_json(names))
        digests[f"{run}/profile"] = _sha(metrics.profile_csv(report))
        snapshots[run] = outcome.dataset
    for name, ds in [("original", corpus), *snapshots.items()]:
        summary = cooccurrence.cooccurrence(ds, subset, snapshot_name=name)
        digests[f"chord_{name}"] = _sha(
            _canonical(cooccurrence.chord_document(summary, corpus.vocabulary)))
    table = cooccurrence.compare_snapshots(corpus, snapshots, subset)
    digests["scumble_table"] = _sha(table.to_json())
    return digests, distinct


PINNED = {
    "flat": {
        "chord_mlsmote_p0.5":
            "d82ac73ac4e8ad49aa7c07efb5038ef47f6ebd056740c81b1fad7575f530dd1f",
        "chord_mlsmote_p1.0":
            "e5bc604d7e62fe8b173904abcf5384aeacdf6d81eb98cceaa960fbfcb70459b3",
        "chord_original":
            "70ac1d4fa11d4b6a707ede1e7420a2b9df0d6f2dc82edb82baa4d32fb8c5844f",
        "chord_proposed_p0.5":
            "be41531265dbfc8519759cbe485d4986f6fb6c68119a333d85786e13fea717f8",
        "chord_proposed_p1.0":
            "9a059092c7adcb324e3bb29301707554b89496cb499a5616aa4eefa3f6cb9a2b",
        "mlsmote_p0.5/dataset":
            "b568d3f9c140136fd34169bbd07905398ea89bfeb20692a211137072eaf84c86",
        "mlsmote_p0.5/diagnostics":
            "623123c6a27f83fa8b081f383913421d4940de4f9cf0837a8fcd96ea09272828",
        "mlsmote_p0.5/profile":
            "6e285bdd3bce64af4a40d3907160e3d06ede71cd72ae45be8119396810a00dc3",
        "mlsmote_p0.5/report":
            "b4b53d804d324f5d34cf304f27bb0fc8716826c3ca028d5ab1f9f8d861cc700b",
        "mlsmote_p1.0/dataset":
            "cc5cab0f4dc7f40418ff0c9b3449c825daba50f1e5af2df9ae20ac5ad6414acc",
        "mlsmote_p1.0/diagnostics":
            "4d4a98ba8612538a1a58c3f53d9e0a9a1f0abdc0bdf4121b570859a2748871e4",
        "mlsmote_p1.0/profile":
            "e3ff0e475d164f5a977ba4fa54ffdcc93e84dbcbaee6effdcdbfbe8e66c57a8f",
        "mlsmote_p1.0/report":
            "bb37ec505847658b7e5ef7cc1ef3a057ecfa6bc944021ca43d5ab91b92d970e3",
        "proposed_p0.5/dataset":
            "d47ced5d3e9c14dff3724aa93695c971c57ee82312efacf0080ef7ddd42aae0e",
        "proposed_p0.5/diagnostics":
            "ad964d2ad2755322d133223ae4293f1ccbfe1380f7698fc13f19432b6965e6f8",
        "proposed_p0.5/profile":
            "e7d18cf48f91d8b4d6149394c837699b4481c35a32d8ea73e36cfe4c60709ebf",
        "proposed_p0.5/report":
            "641b6fcdf4eba382247d9a1f1c1590fd8e6ff6f00de0253b29c85885b77939b1",
        "proposed_p1.0/dataset":
            "107b7d799b450da898d11c861047dfa637f1f669c5f62578518d7517720809c5",
        "proposed_p1.0/diagnostics":
            "e384fc3270fc1206824d258878ab04fde2e060c6180b67b40a92aa6779cb4ad8",
        "proposed_p1.0/profile":
            "05d11f644dfe0c78d29b5f91dc18b8e4b52d58dff768927c471bd7af946d894a",
        "proposed_p1.0/report":
            "b0e087a7804f0017323ed84f22dea467d0ba2394f3e14397d53a3e5512f2ad94",
        "scumble_table":
            "bd38a5e883d893e23d2d1bc1eab7696e7c09d9a8f5648cecc2444a0919a5a04a",
    },
    "readme": {
        "chord_mlsmote_p0.5":
            "48131acb75b7f1d5f49b95b0383a3a4fc05c5167b33927fb54eb6c25a009fd1f",
        "chord_mlsmote_p1.0":
            "03b2f8225982595448bd4acb2d7239904e60823b6c886d34a9f3e3d1c318618c",
        "chord_original":
            "4a9f6fb6233b8ed2cf374caa58cc1ee9b5ecbe7736a06f2c96868029302b87f7",
        "chord_proposed_p0.5":
            "0ffcb3604fead16421f7f2a05b44753b4011ab528daa68401b2452a6b6f25403",
        "chord_proposed_p1.0":
            "744064bc7569c65228a7c1ac801db2515d16748afdb4b1c8a52f33e6fce4d520",
        "mlsmote_p0.5/dataset":
            "ca3310665ca4d2b1abe18c813e542941a02f0e5d695a4c059b56c062cb3365e7",
        "mlsmote_p0.5/diagnostics":
            "0674fed3a182ea9fc1ef906e3dd1a7f2e99d6008d2b4113866d26858adbfb4de",
        "mlsmote_p0.5/profile":
            "93d8cf15d238508aff0a8bf4b4534c9c2a69bce7c2a733c9827237699380ff60",
        "mlsmote_p0.5/report":
            "8b93bda04c47560c77d88498b0c30086eca7c703e86b27d4b54082cb4c68f09d",
        "mlsmote_p1.0/dataset":
            "7f9b3cc1412d2bc929dc0d9cc37f6326d517d46c7f3a66b548c12402537925ad",
        "mlsmote_p1.0/diagnostics":
            "919fd32b89ae9a9436655ef38deba0ec705bbf29184e4806b55fc3d2302dcf54",
        "mlsmote_p1.0/profile":
            "b04d33e1d0e23c5664362f14d80744018b3ba07b57cceffdbed3552dc7a608fb",
        "mlsmote_p1.0/report":
            "78e8fb3d0971062c1cb2e89e81ffa9f7b3da0d867987c0d157df21c22630ac9f",
        "proposed_p0.5/dataset":
            "15fdffe661b2be98060b096f183ac3a358d27f7e99d1f6ce79c3b304b7276ac4",
        "proposed_p0.5/diagnostics":
            "9c3d0aaeff9f9c546cfa81af67595e93fd0e46165ee74476ad580bb395c1bc87",
        "proposed_p0.5/profile":
            "2de89422f3e438ca94da9afa61859cac3358b4599eeece767206a4cd0f916f69",
        "proposed_p0.5/report":
            "4b36e15fdacaafcc8650e7ea338b50d64b297a205b1151bdaccf908cff2f80da",
        "proposed_p1.0/dataset":
            "da128683d827ed9ca892211d1a7dbc7d8cd15692fcc978c9f240afc7c8f933d0",
        "proposed_p1.0/diagnostics":
            "3a3db685ad20c5b23d964789d7d3992bfe952a398e089675d8e0b8360aefbbaa",
        "proposed_p1.0/profile":
            "33a8ed5bca1cef7a7c25fcab7bf7ccabf4d3e26eccd9568b0c2aeddb4b3731cc",
        "proposed_p1.0/report":
            "1b68bb9bad6939ea1cb61310452da919c87e36059a84659cecefe34f8028e987",
        "scumble_table":
            "94985f0445b5a04d63e1165d48249fe844268302af5c7d918ebd3469fd480461",
    },
}

PINNED_DISTINCT = {
    "flat": {"mlsmote_p0.5": 52, "mlsmote_p1.0": 57},
    "readme": {"mlsmote_p0.5": 20, "mlsmote_p1.0": 20},
}


def test_chain_outputs_pinned():
    for name, config in CORPORA.items():
        digests, distinct = chain_digests(config)
        assert digests == PINNED[name], name
        assert distinct == PINNED_DISTINCT[name], name


# The rebalance_sweep statistics at a smaller size: 10k x 200, no graphs, the
# six proposed/mlsmote variants, and an 8-label subset for chords and the
# SCUMBLE table. Recorded from the math.fsum implementation that scored each
# distinct label set in Python and counted co-occurrence pair by pair.
SWEEP_CORPUS = SynthConfig(n_instances=10_000, n_labels=200, fingerprint_width=256,
                           graph_nodes_range=None, cooccurrence_boost=0.3, seed=1)
SWEEP_RUNS = [(method, p) for method in ("proposed", "mlsmote") for p in (0.25, 0.5, 1.0)]

PINNED_SWEEP = {
    "chord_mlsmote_p0.25": "71a2c04c14212d5a5d5200e37944a15de1fb49fb46754d2caa4597e5b68dd3da",
    "chord_mlsmote_p0.5": "a423fb523bd2d57617f4751a5b660ab9ec40349b55967451bd8713f5b67d245e",
    "chord_mlsmote_p1.0": "bea66abda8e8950089e9c3f545a45b9f0a9eb264f39b9fcd03f8435a19308f34",
    "chord_original": "8183109ea6943e39c4c2dd61788d2c078ac4f631f584675232770830ccdf567e",
    "chord_proposed_p0.25": "498ef4387df15213e356c69ef02beecb4cf701450982f42f4a60c0d547a6db37",
    "chord_proposed_p0.5": "67c3a96c764ae03f7b89f0c05fd589164e70213c596d6f5c74fc034dbd25b496",
    "chord_proposed_p1.0": "3af68edc104d7fc076b0b786041e616c787ef86ad3fe19b5be95317c8c4f975f",
    "mlsmote_p0.25/report": "a40e714c62565219958876f3fa66e81a43569e81506d6ccce22704d91f276939",
    "mlsmote_p0.5/report": "be837ab871565723159935efe964faa79d295bf2db9379dae691d270d2d042b5",
    "mlsmote_p1.0/report": "21cfc07adec3c243e33adcaf7f4dc2d625be98aba9f7b982a9fa636e748fc798",
    "original/report": "ecbc903e6a3bd9fc78059bb922ca8f0ef85dd57d7bd4acb2304c57dbce4b4455",
    "proposed_p0.25/report": "e8027f17251ec4fa8a28f80754f7d93bd624e00a490a1778a48df6d328a18d96",
    "proposed_p0.5/report": "f4733f90e1ed271b8e1af791982b6644915bdbe8d4db25ebac21092e60677d2f",
    "proposed_p1.0/report": "7c1ffac0862d2452210bdba1f4b6ec79533f1c4e993659ef2c59fc4a49e776d8",
    "scumble_table": "fd4173bea0403cbb6162a7cc770a3fe04d1e93ce1a3ab83a195fdae53dd8cc05",
}


def test_sweep_statistics_pinned():
    corpus = generate(SWEEP_CORPUS)
    subset = cooccurrence.random_label_subset(corpus.vocabulary, 8, SWEEP_CORPUS.seed)
    digests = {"original/report": _sha(metrics.imbalance_report(corpus).to_json())}
    snapshots = {}
    for method, p in SWEEP_RUNS:
        run = f"{method}_p{p}"
        config = resampling.ResampleConfig(method=method, p=p, r=2, k=5, seed=1)
        snapshots[run] = resampling.oversample(corpus, config).dataset
        digests[f"{run}/report"] = _sha(metrics.imbalance_report(snapshots[run]).to_json())
    table = cooccurrence.compare_snapshots(corpus, snapshots, subset)
    digests["scumble_table"] = _sha(table.to_json())
    for name, ds in [("original", corpus), *snapshots.items()]:
        summary = cooccurrence.cooccurrence(ds, subset, snapshot_name=name)
        digests[f"chord_{name}"] = _sha(
            _canonical(cooccurrence.chord_document(summary, corpus.vocabulary)))
    assert digests == PINNED_SWEEP


# mlsmote rows at the sweep shape, where one round (1764 seed visits) spans
# several blocks of whole bags and bags span several distance blocks.
# Recorded from the implementation that searched and voted one bag at a
# time, each bag with its own label scan and full stable argsort.
PINNED_SWEEP_ROWS = {
    "mlsmote_p0.25/dataset": "93b010b32605707b6e89f9e9599990dff15ddb65774f02d1a1db056bacf58d2d",
    "mlsmote_p0.25/diagnostics": "5d17262f4462b96c8091062365474783bd9e44b362591a68cc7a847703f745ce",
    "mlsmote_p1.0/dataset": "924b16795c550eb08e8cd6700fd92e66dd0fcfa1efb62adc2979f9e95b25e2ad",
    "mlsmote_p1.0/diagnostics": "0a23c0503a44198873934a02ff6e3b3c4705087190f6fe1f833ba7cb823bde4c",
}
PINNED_SWEEP_DISTINCT = {"mlsmote_p0.25": 227, "mlsmote_p1.0": 227}


def test_sweep_mlsmote_rows_pinned():
    corpus = generate(SWEEP_CORPUS)
    digests, distinct = {}, {}
    for p in (0.25, 1.0):
        run = f"mlsmote_p{p}"
        config = resampling.ResampleConfig(method="mlsmote", p=p, r=2, k=5, seed=1)
        outcome = resampling.oversample(corpus, config)
        buffer = io.StringIO()
        write_dataset(outcome.dataset, buffer)
        digests[f"{run}/dataset"] = _sha(buffer.getvalue())
        diagnostics = outcome.diagnostics_document(config)
        distinct[run] = diagnostics.pop("distinct_synthetics")
        digests[f"{run}/diagnostics"] = _sha(_canonical(diagnostics))
    assert digests == PINNED_SWEEP_ROWS
    assert distinct == PINNED_SWEEP_DISTINCT
