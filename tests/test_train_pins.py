"""Pinned training runs: the sha256 of every `OptResult` that the quick
start and the noisy-train benchmark's noiseless baseline produce, of
noisy training on every kind of 143 and on three kinds of 291311, and of
the whole report of the quick start and of the noisy-train benchmark.

Each digest covers the winning angles as little-endian float64 bytes,
then the best objective, the history, and the evaluation and generation
counts.  They were recorded while noiseless training still bound and
simulated one candidate at a time, so one moved bit in any sampled shot
of any candidate shows here.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vqf.sim as sim
from vqf.encoder import FactoringInstance, build_clauses, load_clause_file, preprocess
from vqf.evaluate import SweepConfig, reports_to_json, sweep
from vqf.optimize import DeConfig, train_qaoa
from vqf.sim import NoiseModel
from vqf.transform import ALL_KINDS, GROBNER, apply_transform, to_hamiltonian

_CLAUSES_291311 = (Path(__file__).resolve().parents[1] / "bench" / "data"
                   / "clauses-291311.txt")

_NOISELESS = NoiseModel().with_scale(0.0)


@functools.lru_cache(maxsize=None)
def _hamiltonian(instance: str, kind_name: str):
    if instance == "143":
        cs = preprocess(build_clauses(FactoringInstance(143, 4)))
    else:
        cs = load_clause_file(_CLAUSES_291311)
    kind = next(k for k in ALL_KINDS if k.name == kind_name)
    return to_hamiltonian(apply_transform(cs, kind)[0])


def _digest(instance: str, kind_name: str, p: int, seed: int,
            population: int, generations: int) -> str:
    cfg = DeConfig(dim=2 * p, population_size=population,
                   max_generations=generations, seed=(seed,))
    res = train_qaoa(_hamiltonian(instance, kind_name), p, _NOISELESS, 512, cfg)
    doc = json.dumps([res.best_objective, res.history, res.evaluation_count,
                      res.generations_used])
    data = res.best_params.astype("<f8").tobytes() + doc.encode()
    return hashlib.sha256(data).hexdigest()


# the README quick start's budget: 512 shots, population 10, 15 generations
_QUICKSTART = {
    ("DIRECT", 1, 0):
        "0182c2c7bbd332812ee6212a4e9ee688ec2b8811feec06ed8aa146f8e29db3d8",
    ("DIRECT", 1, 1):
        "e7f4c6867bc312153065c9e052b5ac43d074c9fb0a7e1166aac9b7de3057fb85",
    ("DIRECT", 2, 0):
        "0e09ff5064fd67133f8b49173615c734eeb8a048fbe7db50edaff8885433e40d",
    ("DIRECT", 2, 1):
        "f951a896c656c07b794c2e0cdafc06c718a032ac268517c48db56529113cdbbd",
    ("SCHALLER", 1, 0):
        "57b72c0533dfb166618ea7b82929b4dbf2acb45cad1daecc00049e09c8022b5e",
    ("SCHALLER", 1, 1):
        "0041f83ceba8df6969062138fdf6117575eaa10fed667da8254cc22ba7e641a9",
    ("SCHALLER", 2, 0):
        "4c06e768f1012c6c3b71bd419a152d7b5761393be80aeba15a54ae8930bedeac",
    ("SCHALLER", 2, 1):
        "22b9e7d50a28aa6992d2454cce7354707f341729599ac63d97eb5df28e13d3ff",
    ("GROBNER", 1, 0):
        "eeb2e763bd47b8380998bdaf84c9f1b876e1b2b0758f79ffca24e16f7a3d5c54",
    ("GROBNER", 1, 1):
        "23d7addc2a29db50647210a4198b9631cafc271a2b6c88a190224bdec1c4cbe9",
    ("GROBNER", 2, 0):
        "43c5d846ac24c384b8672da4f9c783e1279bb8a38d8c9e5e03309c5640a446a5",
    ("GROBNER", 2, 1):
        "d9e19bb63c91dfaeed2851510b98c7dcabddecabf38dc93eba9684d83ad5dcc9",
    ("SIM_GROBNER", 1, 0):
        "26c123cdc3aed26a206b0af8e0e0467afec3a623c3fb09ae5c8d4e4a48eaff60",
    ("SIM_GROBNER", 1, 1):
        "c6382adcafbe00cdadfa7a8b29689985a52a5037a4459f86fc7b02bc475a78b1",
    ("SIM_GROBNER", 2, 0):
        "3ea6176768a1c4735ae501845bb1b96a09281135ba0759f19de597abb8923027",
    ("SIM_GROBNER", 2, 1):
        "4970baf9b7006b857f081b30e072407409d16396fc5305fdeeccf342b3850ce7",
}

# `noisy-train-291311`'s level-0 baseline: GROBNER, p=1, 512 shots,
# population 8, 4 generations
_BASELINE_291311 = [
    "0129f4f7fca68241b7748cd401aed0af548ebaa2dd4d3aa7643ee4ec80839211",
    "bc93169a256dd53e28140a4d03f5aaedade0079275953814b4a001191e56d6c6",
    "c59ccbf2cde355b2b36aafdea5cf410b7809b3bc3a708c6a3b565b99ceebdb84",
    "04b9cc19e5974a137b5695129bce2e7b69cceb62e8846affdfd4354fc45f67f2",
    "45d66d61d681772367a041a1f35bd045abb99494eb4e43297d4da7dc9810abce",
    "baeb1028b9d721e792355fc43ad2ce526e750eafd3ebe7958cd5b62522511dad",
    "a1c5f396be70026388054734ca47239c6597ed09c3f9744bac05fed7943bb633",
    "18948f80de5b6c3402f89bcf7cf9f726855f53fc6a98e6d422c6f8a4cc39a8ff",
    "83838f9e684cdd2c4b16067c4b2b943e504900f0b024aa9a903a341ce50f4684",
    "0220e14a3305b3ee11e57fcfde35a383e312547dac8ff7d044671e4f66877532",
    "84992d9ffed56f1f72a3ec20231fd44fea3109d188f37a5e9d839f5f934abf07",
    "72f89bacac12ac5ff9bc0d23085ec7a3406d8e06edcbb66c41ebd61bc85ad90c",
    "e98667b0554c03192014b6a575ed905a481cfd4937c5117a9732b21fc2120df4",
    "ad4e0bc2675742abaf50d0f228144490d700a8f8239efab68e94df26c5e50773",
    "02d703a29b18b3970358f1fd0ba733c2d472ffd4cea3c0f377eeb9241c2d8074",
    "4c92a6ea80be2a2f58d73db548e8ba3e09a659c046388656cd9a30b44aca5a21",
    "50b901d19e462782b0e69e6d622fb5cb34c21337ab75e35b1bda3e8d30bd81a6",
    "bba5feb237986afbac3e7c1377e2273efbb67d241c354715c974869aa46f4369",
    "c05741c74672b0e418eddbdb79ae027255447f9fb3a91f7dc2edc13170678798",
    "4c36f770b03fde92dd5b954fb605b3a3247b4aad5a1b8761cfaaeada463ed0dc",
    "476b84fcefde0da7a82f17ff63c4cebf42ba6b94aec088ba8678e99f181c6baf",
    "3123ebe6b4cebb69a30abcf44c34ec5a608419c20a0f48d26ac410a61309df55",
    "bad28e1d2efc14a9951e0487b61f4328a28aa43bc8224ad78e2285b423cd92a5",
    "e2c046cc0ea907b5bb8ee856c82605515e9e85ee430a316d7c21db209e780bb6",
    "00bfa351d4c597281c4457855cc15c5bbe290b02479d6a01d9914ba0f057efc8",
    "ffe28833755b4f847bbce902d984b5443d2923744b30d4430e7771313b309c76",
    "c53487d6a1b88702eb5b8d294d8f902a304894946af22705a4cc5797119a695e",
    "868a87fca6ddfcca155be08cf297f5692b1683cc7dc6cb17f0bedeb4cfc3ca1f",
    "c195f514225145901cadea03e5a5efa533e76f9194c40261ab1debb679ed20b5",
    "2a7dfe4c2bcf50aeea7862e3c040b913742548b739bc19001b379afcbd906b04",
    "5175b8e9834e423da73f52bbeda47d3c145b98b75a8646a48cf2daa463dee5fb",
    "3b4a23bef5d563d24cf53c759535660cde07ae6b484e0977396663fa687d2b24",
    "913e5e2c605ff251079dfc7e16149214ff93afb3cacc77f8b558ee7acfd6d27f",
    "bacd0b65da4635c9eca3c20c97e55c73301a742d5aa15d7971369f9c935124da",
    "4cdaaeff8db995b10c8085c0f346eae3e7753f99cfa6ad07327fdc18a52b2207",
    "1089015cc0ef77cdb75a8d0babac69906b5acd3a8417a15ca042a142851e76ba",
    "e85827c19278932885f32877bed59cbf569f6b497fc74aa1347a904f56505737",
    "a8d2858164f9f1d8f0b7c2d3620dc4a3bfc1f7572cde6bee2c286eff6b31152a",
    "a36176d7ad88d7806b806b6480f0e72a4d09e24dd226b6fdca87087fdf329fd5",
    "0a264547667b8ef33334c8cdb53764bd959668a29765202016397db214832e23",
    "cf2ae2096b85414baa8820e2d8a5ce9deb96f3af564695413e258b221d9392ea",
]


@pytest.mark.parametrize("kind_name, p, seed", sorted(_QUICKSTART))
def test_quickstart_training_is_pinned(kind_name, p, seed):
    digest = _digest("143", kind_name, p, seed, 10, 15)
    assert digest == _QUICKSTART[kind_name, p, seed]


@pytest.mark.parametrize("seed", range(len(_BASELINE_291311)))
def test_noisy_train_baseline_training_is_pinned(seed):
    digest = _digest("291311", GROBNER.name, 1, seed, 8, 4)
    assert digest == _BASELINE_291311[seed]


# sha256 of `reports_to_json` for the `noisy-train-291311` sweep (GROBNER,
# p=1, level 1.0, 512 train shots, 2,048 report shots, population 8,
# 4 generations): the bytes `vqf sweep` writes to nrpg-report-*.json.
# Every noisy shot of training and of the report goes into them.  Seeds
# 0-9 cover the seeds the benchmark runs this workload at.
_NOISY_TRAIN_REPORTS = [
    "46246d82bf2dfa74dc8cb6b0215e27891fada28fa1f47977e729aea3c037787b",
    "9bc7005dcd824a1121d2e15586c4364df12b5d01aac1ddeee3ea2dd5034a55e5",
    "ffbc42ee81d1d3352571deba969642f3e867174f5416f90386ac6ea25a36a112",
    "be56ea77a58d9b4535bb98a5f09ba26ca59ede11b720574a82ff9c22567c65fd",
    "649543598fb8752c31ca525d7a7fb3ddd3df9455ed8c01dd4c981418d3acad50",
    "ccc42f2e5f7ddd5a00a0a6f52b9fc6c56aa56441fca13eb07d5bb587d17efb55",
    "1036cd1f5022bd87c784b2e128fde5e34d60a1cde976058702f8832571436513",
    "69b7b6ab2afd0d3ae56388716271e26b08bc5cbbfb909a26d894583d1813d58c",
    "ee6cd16d950d1305ecc7afd1f395aedf6a9aefd36b90ad927f8253b68dec0801",
    "499af9e46b60588658a0dc208f307b7a4e579ac7359f1a3088c013af532918a3",
]


@pytest.mark.parametrize("seed", range(len(_NOISY_TRAIN_REPORTS)))
def test_noisy_train_report_is_pinned(seed):
    cfg = SweepConfig(seeds=(seed,), train_shots=512, report_shots=2048,
                      population_size=8, max_generations=4)
    reports = sweep(load_clause_file(_CLAUSES_291311), [GROBNER], [1], [1.0], cfg,
                    label=_CLAUSES_291311.stem)
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == _NOISY_TRAIN_REPORTS[seed]


# sha256 of `reports_to_json` for the quick-start sweep (143, all kinds,
# p=1, levels 0, 0.5 and 1.0, seeds (S, S + 1), 512 train shots, the
# default 8,192 report shots, population 10, 15 generations,
# `reuse_params`): the bytes `vqf pipeline` writes to nrpg-report-*.json.
# Every level scores the noiseless angles, so the noisy report draws go
# into them.  Recorded while every report draw still bound its circuit.
_QUICKSTART_REPORTS = {
    0: "88547156761ce50271bee04c10c438a59f7e982ef9b12cf4c2a519e4959af8cb",
    10: "b979892fae23705c3a0833523e3b296249362d3735298755d8829302ae6aa94c",
    20: "48c1fcfd5c8c05eef97751a81eda58a80ee2edb52eae374ae5404991704c0606",
}


@pytest.mark.parametrize("seed", sorted(_QUICKSTART_REPORTS))
def test_quickstart_report_is_pinned(seed):
    cfg = SweepConfig(seeds=(seed, seed + 1), train_shots=512, population_size=10,
                      max_generations=15, reuse_params=True)
    reports = sweep(FactoringInstance(143, 4), ALL_KINDS, [1], [0.0, 0.5, 1.0], cfg)
    digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
    assert digest == _QUICKSTART_REPORTS[seed]


# Noisy training at a small budget (256 shots, population 6, 3 generations,
# seed 5): sha256 of `OptResult.to_json()`, recorded while every noisy
# candidate was still bound and sampled on its own.  "gate" is gate noise
# alone, at the heavy rates of test_sim's `_ARMS["gate"]`.
_NOISE_MODELS = {
    "default": NoiseModel(),
    "gate": NoiseModel(p1=0.05, p2=0.1, t1_us=2.0, t2_us=3.0, dur1_ns=150.0,
                       dur2_ns=400.0, decoherence_on=False),
}

_NOISY_TRAINING = {
    ("143", "DIRECT", 1, "default"):
        "cd036fa37c7b9093176d1f068baa5aa4db3bbaf713e4645b7af7e7f87eaafb8d",
    ("143", "DIRECT", 1, "gate"):
        "118765b82b71eb0738d0dcd8ff49853420e173ada6381da3e7fb6f4c44a01f43",
    ("143", "DIRECT", 2, "default"):
        "8221e8967ec4920abb0d6cbecab0d1b725f4e9ae364edb9d09eb1a7c85d944af",
    ("143", "DIRECT", 2, "gate"):
        "2b1e2d6b87145658a79e894b2f6a1d8f04ebe69c260b047c6dfedbeff642632c",
    ("143", "SCHALLER", 1, "default"):
        "9ab5d6cfe22291b7f60c19706497a509f4e4d492065e4744a82ca5a4789539ab",
    ("143", "SCHALLER", 1, "gate"):
        "90f7b6d2313eab74627501e8f0766530ef7bedcba1fb3e960999858760878111",
    ("143", "SCHALLER", 2, "default"):
        "f69d41b75ead3d08eddfc5b6c85174b72f7ed32ea9039d1fe7ab1dfdac28fb0e",
    ("143", "SCHALLER", 2, "gate"):
        "e097236fe9db7f42b9ad00bf8ebf927d08116403e4a0c6aeb4ac539f6f901597",
    ("143", "GROBNER", 1, "default"):
        "33f2f3f535d64f91911ece6fb5c1858837a91e006abfd888e6891281174b632e",
    ("143", "GROBNER", 1, "gate"):
        "33547af8c3587519a5d3bc400803ab32f076536596b9f8ca1cf93e44253a3379",
    ("143", "GROBNER", 2, "default"):
        "d85e73b9c21c267c6bde7b060738d9ec9aa8ed9ed1f137272a18766afbeef175",
    ("143", "GROBNER", 2, "gate"):
        "4683b4c9c58e1eedd95e32670a0098b9574114a31dfcba19f9307472cdce8b3c",
    ("143", "SIM_GROBNER", 1, "default"):
        "d8811f0c2e19fcb30498a0a4ddd1761e263e3175234e2e8feb18cfc62bed15ca",
    ("143", "SIM_GROBNER", 1, "gate"):
        "bd2f9135b495cec92d5e91567c8b0ba66034b287f1890dbe6c8f01db81358341",
    ("143", "SIM_GROBNER", 2, "default"):
        "3b97679638c1d88d97e5b79297645770434599d1d82fa87179c8576c463c9728",
    ("143", "SIM_GROBNER", 2, "gate"):
        "7a6cbc57bbb8dbbd6d9bf6c116a60cd44d320fc94f67b3de2268c5775d5ec19d",
    ("291311", "SCHALLER", 1, "default"):
        "b4f038f79f272175c6a5a07168aa3a07a135b46130cf9f87af9e1d533a064cba",
    ("291311", "SCHALLER", 1, "gate"):
        "f17a7352605c808635f60475d5d86d580908a8026af662e6dafcb5eac26679b1",
    ("291311", "GROBNER", 1, "default"):
        "2fed0ebdce11c4e9cbcede9f997701cc959a3b809504e7a59f7531bb5e9faff1",
    ("291311", "GROBNER", 1, "gate"):
        "37e5bf1d722b6e2388924b17f0e48b7b8c6e58234a537d23008a1fd29f6f3377",
    ("291311", "SIM_GROBNER", 1, "default"):
        "126f13704bd7f98dc1eaa62aed99ddd2a1836c5c421c806cbbc86eafd9ce3264",
    ("291311", "SIM_GROBNER", 1, "gate"):
        "b5a70a881d97fc56e93c5709e1c4de4c1c3d546206fb2500d21c201c31b41c63",
}


@pytest.mark.parametrize("instance, kind_name, p, model", sorted(_NOISY_TRAINING))
def test_noisy_training_is_pinned(instance, kind_name, p, model):
    cfg = DeConfig(dim=2 * p, population_size=6, max_generations=3, seed=(5,))
    res = train_qaoa(_hamiltonian(instance, kind_name), p, _NOISE_MODELS[model], 256, cfg)
    digest = hashlib.sha256(res.to_json().encode()).hexdigest()
    assert digest == _NOISY_TRAINING[instance, kind_name, p, model]


def test_quickstart_training_does_not_depend_on_the_stream_cache():
    # every kind trains at one DE seed from the same shot substreams, so
    # one kind's run leaves the next one's seeded states cached
    cfg = DeConfig(dim=2, population_size=10, max_generations=15, seed=(0,))

    def train(kind_name):
        return train_qaoa(_hamiltonian("143", kind_name), 1, _NOISELESS, 512, cfg).to_json()

    sim._stream_state.cache_clear()
    cold = train("GROBNER")
    sim._stream_state.cache_clear()
    train("DIRECT")
    hits = sim._stream_state.cache_info().hits
    warm = train("GROBNER")
    assert sim._stream_state.cache_info().hits > hits
    assert warm == cold


_TRAIN_CHILD = """
import hashlib, sys
from vqf.encoder import load_clause_file
from vqf.optimize import DeConfig, train_qaoa
from vqf.sim import NoiseModel
from vqf.transform import SIM_GROBNER, apply_transform, to_hamiltonian
h = to_hamiltonian(apply_transform(load_clause_file(sys.argv[1]), SIM_GROBNER)[0])
cfg = DeConfig(dim=2, population_size=6, max_generations=3, seed=(5,))
res = train_qaoa(h, 1, NoiseModel(), 256, cfg)
print(hashlib.sha256(res.to_json().encode()).hexdigest())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_noisy_training_does_not_depend_on_blas_threads(threads):
    # the OpenBLAS thread count is read once at process start, so each
    # count needs a fresh interpreter; 9-qubit SIM_GROBNER holds the
    # largest tensors of any pinned training
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _TRAIN_CHILD, str(_CLAUSES_291311)],
                         env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == _NOISY_TRAINING["291311", "SIM_GROBNER", 1, "default"]
