"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Criteria 7-9 share one full-scale experiment (the committed
configs/acceptance.yaml: 3 development + 1 external site, ~20k
encounters each, 50 federated rounds), cached in a module fixture.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedsurg import cohort as C
from fedsurg import experiment as E
from fedsurg import federation as F
from fedsurg import metrics
from fedsurg import model as M
from fedsurg import personalize as PZ
from fedsurg import wire as W
from fedsurg.preprocess import Preprocessor, chronological_split, shared_scaler
from conftest import (SMALL_ARCH, federate_traced, loss_on, params_digest,
                      random_batch)

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "acceptance.yaml"


def _verdict(n, name, check):
    # write to the real stdout so the verdict line survives pytest capture
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {n} {name}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {n} {name}: PASS", file=sys.__stdout__, flush=True)


# --- criterion 1: gradient correctness ------------------------------------

def test_criterion_1_gradient_check():
    def check():
        h = 1e-5
        worst = 0.0
        for seed in range(20):
            params = M.init_params(SMALL_ARCH, seed)
            # Jitter all parameters away from zero: freshly initialised biases
            # are exactly 0, which puts ReLU pre-activations on the kink where
            # central differences and the subgradient legitimately disagree.
            jitter = np.random.default_rng([seed, 0xFD])
            for arr in params.values():
                arr += jitter.uniform(0.01, 0.05, size=arr.shape) * jitter.choice([-1.0, 1.0], size=arr.shape)
            batch = random_batch(SMALL_ARCH, 6, 100 + seed)
            # the gradients local_train descends, from the kernel
            grads = {k: np.empty_like(v) for k, v in params.items()}
            M.RiskNet(SMALL_ARCH)(params, grads, batch, np.arange(len(batch)))
            for name, arr in params.items():
                fd = np.zeros_like(arr)
                it = np.nditer(fd, flags=["multi_index"])
                for _ in it:
                    mi = it.multi_index
                    orig = arr[mi]
                    vals = []
                    for sign in (+1, -1):
                        arr[mi] = orig + sign * h
                        vals.append(loss_on(params, SMALL_ARCH, batch))
                    arr[mi] = orig
                    fd[mi] = (vals[0] - vals[1]) / (2 * h)
                denom = max(np.linalg.norm(fd), 1e-10)
                rel = np.linalg.norm(grads[name] - fd) / denom
                worst = max(worst, rel)
        assert worst < 1e-4, f"max relative error {worst:.2e}"

    _verdict(1, "gradient check vs finite differences", check)


# --- criterion 2: aggregator algebra --------------------------------------

SPEC_SMALL = C.FeatureSpec(
    n_continuous=SMALL_ARCH.n_continuous, n_binary=SMALL_ARCH.n_binary,
    hc_vocab_sizes=tuple(v for v, _ in SMALL_ARCH.high_card_specs))


def _small_site(name, n=200, seed=8):
    cfg = C.SiteConfig(site_name=name, n_patients=n,
                       target_prevalence=(0.2, 0.1, 0.15, 0.05),
                       surgeon_vocab_size=10)
    truth = C.make_ground_truth(SPEC_SMALL, seed)
    cohort, _ = C.generate_site(cfg, SPEC_SMALL, truth, seed, mc_samples=5_000)
    train, val, _ = chronological_split(cohort)
    return train, val


def _small_worker(name, train, val, algo, cfg):
    return F.SiteWorker(name, train, val, SMALL_ARCH, algo, cfg,
                        Preprocessor(SPEC_SMALL.hc_vocab_sizes, 10).fit(train))


def _small_workers(algo, cfg, names=("a", "b", "c")):
    return {n: _small_worker(n, *_small_site(n), algo, cfg) for n in names}


def test_criterion_2_aggregator_algebra():
    def check():
        cfg = F.TrainConfig(lr=0.1, batch_size=64, rounds=20, patience=20, seed=4)

        # (i) FedProx(mu=0) == FedAvg, bit for bit, over 20 rounds
        ravg, avg_trace = federate_traced(SMALL_ARCH, "fedavg", cfg,
                                          _small_workers("fedavg", cfg))
        rprox, prox_trace = federate_traced(SMALL_ARCH, "fedprox", cfg,
                                            _small_workers("fedprox", cfg))
        assert ravg.history == rprox.history
        assert len(avg_trace) == len(prox_trace) == 20
        for pa, pb in zip(avg_trace, prox_trace):
            assert params_digest(pa) == params_digest(pb)

        # (ii) SCAFFOLD control-mean invariant after every round
        names = ("a", "b", "c")
        fms = {}
        for n in names:
            train, _ = _small_site(n)
            lpp = Preprocessor(SPEC_SMALL.hc_vocab_sizes, 10).fit(train)
            fms[n] = lpp.rescaled(
                *shared_scaler([lpp.scaler_stats()])).transform(train)
        x = M.init_params(SMALL_ARCH, cfg.seed)
        state = F.ScaffoldState.zeros(x, names)
        c_is = {n: F.zeros_like_params(x) for n in names}
        for t in range(20):
            updates = []
            for n in names:
                c = state.server_control
                offset = {k: c[k] - c_is[n][k] for k in c}
                rep = M.local_train(x, M.RiskNet(SMALL_ARCH), fms[n], cfg,
                                    F.client_rng(cfg.seed, n, t),
                                    grad_offset=offset)
                c_new = F.scaffold_client_finalize(
                    c_is[n], c, x, rep.params, rep.steps_taken, cfg.lr)
                delta = {k: c_new[k] - c_is[n][k] for k in c_new}
                c_is[n] = c_new
                updates.append(W.ClientUpdate(n, t, rep.params, rep.n_samples,
                                              rep.steps_taken, delta))
            x = F.scaffold_server_update(state, x, updates, cfg.server_lr)
            assert state.control_gap() < 1e-12, f"round {t}"

        # (iii) single-client federated == quantized SGD, 1e-9 per round
        solo_cfg = F.TrainConfig(lr=0.1, batch_size=64, rounds=20,
                                 patience=20, seed=4)
        train, val = _small_site("solo")
        workers = {"solo": _small_worker("solo", train, val, "fedavg",
                                         solo_cfg)}
        _, trace = federate_traced(SMALL_ARCH, "fedavg", solo_cfg, workers)
        assert len(trace) == 20
        lpp = Preprocessor(SPEC_SMALL.hc_vocab_sizes, 10).fit(train)
        fm = lpp.rescaled(*shared_scaler([lpp.scaler_stats()])).transform(train)
        params = M.init_params(SMALL_ARCH, solo_cfg.seed)
        for t in range(20):
            xq = W.quantize32(params)
            rep = M.local_train(xq, M.RiskNet(SMALL_ARCH), fm, solo_cfg,
                                F.client_rng(solo_cfg.seed, "solo", t))
            params = W.quantize32(rep.params)
            diff = max(np.abs(trace[t][k] - params[k]).max() for k in params)
            assert diff < 1e-9, f"round {t}: {diff}"

    _verdict(2, "aggregator algebra", check)


# --- criterion 3: metric oracles ------------------------------------------

def test_criterion_3_metric_oracles():
    def check():
        rng = np.random.default_rng(1)
        for i in range(1000):
            n = int(rng.integers(2, 51))
            s = rng.choice(np.linspace(0, 1, 6), size=n)
            y = rng.integers(0, 2, n).astype(float)
            if y.sum() in (0, n):
                y[0] = 1 - y[0]
            pos, neg = s[y == 1], s[y == 0]
            pairs = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                        for p in pos for q in neg)
            assert abs(metrics.auroc(s, y)
                       - pairs / (len(pos) * len(neg))) < 1e-12, f"case {i}"
            ap, prev_r = 0.0, 0.0
            for t in sorted(set(s), reverse=True):
                pred = s >= t
                tp = float((pred & (y == 1)).sum())
                ap += (tp / y.sum() - prev_r) * (tp / pred.sum())
                prev_r = tp / y.sum()
            assert abs(metrics.auprc(s, y) - ap) < 1e-12, f"case {i}"

        # Mann-Whitney exact branch vs full enumeration, all sizes <= 7
        rng = np.random.default_rng(2)
        for n_a, n_b in itertools.product(range(2, 8), range(2, 8)):
            a = rng.choice([0.0, 1.0, 2.0, 3.0], size=n_a)
            b = rng.choice([0.0, 1.0, 2.0, 3.0], size=n_b)
            u, p = metrics.mann_whitney_u(a, b)
            pooled = np.concatenate([a, b])

            def u_of(idx):
                sel = pooled[list(idx)]
                rest = np.delete(pooled, list(idx))
                return sum(1.0 if x > v else (0.5 if x == v else 0.0)
                           for x in sel for v in rest)

            mean_u = n_a * n_b / 2.0
            obs = abs(u_of(range(n_a)) - mean_u)
            hits = total = 0
            for combo in itertools.combinations(range(n_a + n_b), n_a):
                total += 1
                if abs(u_of(combo) - mean_u) >= obs - 1e-9:
                    hits += 1
            assert abs(p - hits / total) < 1e-12, (n_a, n_b)

        stat, _ = metrics.chi_square([[10, 20], [20, 10]])
        assert abs(stat - 6.6667) < 1e-4

    _verdict(3, "metric oracles", check)


# --- criterion 4: bootstrap coverage --------------------------------------

def test_criterion_4_bootstrap_coverage():
    def check():
        prevalence = lambda scores, labels: float(np.mean(labels))
        rng = np.random.default_rng(13)
        covered = 0
        trials = 500
        for i in range(trials):
            y = (rng.random(500) < 0.3).astype(float)
            r = metrics.bootstrap_ci(y, y, prevalence, n_boot=400, seed=i)
            if r.ci_low <= 0.3 <= r.ci_high:
                covered += 1
        rate = covered / trials
        assert 0.92 <= rate <= 0.98, f"coverage {rate:.3f}"

    _verdict(4, "bootstrap coverage", check)


# --- criterion 5: generator calibration -----------------------------------

def test_criterion_5_generator_calibration():
    def check():
        spec = C.FeatureSpec()
        truth = C.make_ground_truth(spec, 77)
        targets = {
            "partner3": (0.15, 0.06, 0.10, 0.02),
            "partner4": (0.02, 0.01, 0.01, 0.001),
            "partner6": (0.06, 0.02, 0.15, 0.01),
        }
        for name, target in targets.items():
            cfg = C.SiteConfig(site_name=name, n_patients=40_000,
                               target_prevalence=target)
            cohort, _ = C.generate_site(cfg, spec, truth, 77)
            assert len(cohort.records) >= 45_000
            prev = cohort.prevalence()
            for k in range(4):
                err = abs(prev[k] - target[k])
                assert err < 0.015, (name, C.OUTCOME_NAMES[k], prev[k])

    _verdict(5, "generator prevalence calibration", check)


# --- criterion 6: pipeline protocol ---------------------------------------

def test_criterion_6_pipeline_protocol():
    def check():
        spec = C.FeatureSpec(n_continuous=10, n_binary=5,
                             hc_vocab_sizes=(15, 8))
        truth = C.make_ground_truth(spec, 21)
        cohorts = []
        for name in ("s1", "s2", "s3"):
            cfg = C.SiteConfig(site_name=name, n_patients=2_000,
                               target_prevalence=(0.15, 0.06, 0.10, 0.02))
            cohorts.append(C.generate_site(cfg, spec, truth, 21,
                                           mc_samples=10_000)[0])

        # split fractions, patient overlap, date ordering
        for cohort in cohorts:
            train, val, test = chronological_split(cohort)
            n = len(cohort.records)
            assert abs(len(train) / n - 0.60) < 0.02
            assert abs(len(val) / n - 0.10) < 0.02
            assert abs(len(test) / n - 0.30) < 0.02
            seen: dict[str, int] = {}
            for j, part in enumerate((train, val, test)):
                for rec in part.records:
                    assert seen.setdefault(rec.patient_id, j) == j
            firsts = []
            for part in (train, val, test):
                f: dict[str, int] = {}
                for rec in part.records:
                    f[rec.patient_id] = min(f.get(rec.patient_id, 10**9),
                                            rec.admission_date)
                firsts.append(f)
            assert max(firsts[0].values()) <= min(firsts[1].values())
            assert max(firsts[1].values()) <= min(firsts[2].values())

        # shared-scaler transform == pooled-minmax transform (site clips)
        trains = [chronological_split(c)[0] for c in cohorts]
        pps = [Preprocessor(spec.hc_vocab_sizes).fit(t) for t in trains]
        gmins, gmaxs = shared_scaler([p.scaler_stats() for p in pps])
        for pp, train in zip(pps, trains):
            fm = pp.rescaled(gmins, gmaxs).transform(train)
            assert np.all((fm.continuous >= 0.0) & (fm.continuous <= 1.0))
            cont = np.stack([r.continuous for r in train.records])
            s = pp.continuous
            for i in range(spec.n_continuous):
                col = cont[:, i].copy()
                col[np.isnan(col)] = s["median"][i]
                col = np.clip(col, s["clip_low"][i], s["clip_high"][i])
                want = np.clip((col - gmins[i]) / (gmaxs[i] - gmins[i]), 0, 1)
                assert np.max(np.abs(fm.continuous[:, i] - want)) < 1e-12

    _verdict(6, "pipeline protocol", check)


# --- criteria 7-9: the committed full-scale experiment --------------------

@pytest.fixture(scope="module")
def big(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    doc = yaml.safe_load(CONFIG.read_text())
    doc["output_dir"] = str(tmp / "out")
    cfg_path = tmp / "acceptance.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    cfg = E.load_config(cfg_path)

    out = Path(cfg.output_dir)
    (out / "cohorts").mkdir(parents=True)
    cohorts = {}
    for name, (cohort, _rep) in E.generate_cohorts(cfg).items():
        C.cohort_to_csv(cohort, out / "cohorts" / f"{name}.csv")
        cohorts[name] = cohort
    sites = E.prepare_sites(cfg, cohorts)

    t0 = time.time()
    local = {n: E.local_unit(cfg, sites[n]) for n in cfg.development_sites}
    central, central_pp = E.central_unit(cfg, sites)
    fedavg = E.federated_unit(cfg, sites, "fedavg")
    scaffold = E.federated_unit(cfg, sites, "scaffold")
    assert time.time() - t0 < 12 * 60

    names = cfg.development_sites + cfg.external_sites

    def site_auroc(params, name, pp):
        fm = pp.transform(sites[name].test)
        probs = M.predict(params, cfg.arch, fm)
        vals = []
        for k in range(4):
            try:
                vals.append(metrics.auroc(probs[:, k], fm.labels[:, k]))
            except metrics.DegenerateLabelsError:
                vals.append(np.nan)
        return np.array(vals)

    table = {
        "fedavg": {n: site_auroc(fedavg.best_params, n, sites[n].pp_fed)
                   for n in names},
        "scaffold": {n: site_auroc(scaffold.best_params, n, sites[n].pp_fed)
                     for n in names},
        "central": {n: site_auroc(central.best_params, n, central_pp)
                    for n in names},
    }
    for s in cfg.development_sites:
        table[f"local_{s}"] = {
            n: site_auroc(local[s].best_params, n, sites[n].pp_local)
            for n in names}
    return dict(cfg=cfg, cfg_path=cfg_path, out=out, sites=sites,
                names=names, table=table, fedavg=fedavg, scaffold=scaffold)


def test_criterion_7_directional_reproduction(big):
    def check():
        table, names = big["table"], big["names"]
        cfg = big["cfg"]
        mean = lambda m: float(np.nanmean([table[m][n] for n in names]))

        # (a) SCAFFOLD comparable or superior to FedAvg
        assert mean("scaffold") >= mean("fedavg") - 0.01

        # (b) federated >= best foreign local on every site
        for n in names:
            foreign = max(float(np.nanmean(table[f"local_{s}"][n]))
                          for s in cfg.development_sites if s != n)
            for fed in ("fedavg", "scaffold"):
                got = float(np.nanmean(table[fed][n]))
                assert got >= foreign - 0.01, (n, fed, got, foreign)

        # (c) federated within 0.02 of central
        assert mean("scaffold") >= mean("central") - 0.02
        assert mean("fedavg") >= mean("central") - 0.02

    _verdict(7, "directional reproduction", check)


def test_criterion_8_personalization(big):
    def check():
        cfg = big["cfg"]
        sd = big["sites"]["partner3"]
        params = big["fedavg"].best_params
        vocab = cfg.site("partner3").config.surgeon_vocab_size
        train_fm = sd.pp_fed.transform(sd.train)
        val_fm = sd.pp_fed.transform(sd.val)

        pm0 = PZ.warm_start(params, cfg.arch, vocab,
                            embed_dim=cfg.fine_tune_embed_dim, seed=cfg.seed)
        gap = np.max(np.abs(PZ.predict_personalized(pm0, val_fm)
                            - M.predict(params, cfg.arch, val_fm)))
        assert gap < 1e-12

        before = PZ.personalized_loss(pm0, val_fm)
        ft_cfg = F.TrainConfig(lr=0.05, batch_size=cfg.train.batch_size)
        pm = PZ.fine_tune(params, cfg.arch, train_fm, ft_cfg, seed=cfg.seed,
                          surgeon_vocab_size=vocab,
                          embed_dim=cfg.fine_tune_embed_dim,
                          epochs=cfg.fine_tune_epochs)
        assert params_digest(pm.backbone) == params_digest(params)
        after = PZ.personalized_loss(pm, val_fm)
        assert after <= before, (after, before)

    _verdict(8, "personalization warm start and fine-tune", check)


def test_criterion_9_transport_transparency(big):
    def check():
        cfg = big["cfg"]
        out = big["out"]
        (out / "history").mkdir(exist_ok=True)
        (out / "checkpoints").mkdir(exist_ok=True)
        inproc_csv = out / "history" / "fedavg.csv"
        E.write_history_csv(inproc_csv, big["fedavg"].history)

        base = [sys.executable, "-m", "fedsurg.cli"]
        coord = subprocess.Popen(
            base + ["serve-coordinator", "--config", str(big["cfg_path"]),
                    "--algo", "fedavg"])
        time.sleep(1.0)
        site_procs = [
            subprocess.Popen(base + ["serve-site", "--config",
                                     str(big["cfg_path"]),
                                     "--site", name, "--algo", "fedavg"])
            for name in cfg.development_sites
        ]
        for p in site_procs:
            assert p.wait(timeout=600) == 0
        assert coord.wait(timeout=60) == 0

        socket_csv = out / "history" / "fedavg_socket.csv"
        assert socket_csv.read_bytes() == inproc_csv.read_bytes()

        # golden frame vector decodes unchanged
        golden = bytes.fromhex("4644524b010608000000070000000000000070d6e76f")
        msg, used = W.decode_frame(golden)
        assert used == len(golden) and msg == W.RoundAck(7)
        assert W.encode_frame(W.RoundAck(7)) == golden

    _verdict(9, "transport transparency", check)
