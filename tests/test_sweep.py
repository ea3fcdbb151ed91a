import dataclasses
import warnings

import numpy as np
import pytest

import tinymmt.training.sweep as sweep
from tinymmt.errors import ConfigError, DataError
from tinymmt.training import StageConfig, hyperparameter_sweep, run_stage
from tinymmt.training.sweep import decode_instances, evaluate_bleu, generate_hypotheses
from tinymmt.training.stages import SWEEP_EPOCHS, SWEEP_LRS

from conftest import build_model, make_instances, make_records


STAGE = StageConfig(stage=3, seed=3, batch_size=2, max_steps=2)


def sweep_setup():
    train = make_instances(make_records(4, seed=1), "text_only")
    val = make_instances(make_records(2, seed=30), "text_only")
    model = build_model(train + val, seed=6, c_total=256)
    return model, train, val


def test_reference_grid_has_twelve_cells():
    assert len(SWEEP_LRS) * len(SWEEP_EPOCHS) == 12


def test_grid_covers_every_cell_and_ranks_by_bleu():
    model, train, val = sweep_setup()
    rows = hyperparameter_sweep(model, train, val, STAGE, lrs=[1e-3, 1e-4], epochs_list=[1, 2])
    assert len(rows) == 4
    assert {(r["lr"], r["epochs"]) for r in rows} == {(1e-3, 1), (1e-3, 2), (1e-4, 1), (1e-4, 2)}
    bleus = [r["bleu"] for r in rows if r["error"] is None]
    assert bleus == sorted(bleus, reverse=True)
    assert all("val_loss" in r for r in rows)


def test_single_cell_reduces_to_run_stage_plus_evaluate():
    model, train, val = sweep_setup()
    rows = hyperparameter_sweep(model, train, val, STAGE, lrs=[1e-3], epochs_list=[1])

    manual = model.clone()
    run_stage(manual, train, StageConfig(stage=3, lr=1e-3, epochs=1, batch_size=2,
                                         seed=3, max_steps=2))
    assert rows[0]["bleu"] == evaluate_bleu(manual, val)
    assert rows[0]["error"] is None


def test_ranking_reproducible_under_fixed_seed():
    model, train, val = sweep_setup()
    kwargs = dict(stage=dataclasses.replace(STAGE, seed=5), lrs=[1e-3, 1e-4], epochs_list=[1])
    assert (hyperparameter_sweep(model, train, val, **kwargs)
            == hyperparameter_sweep(model, train, val, **kwargs))


def test_cell_failures_reported_without_aborting():
    # lr 1e300 is a valid value whose first update overflows the weights, so
    # the cell's second step fails the non-finite check while it trains, with
    # no raw numpy RuntimeWarning on the way
    model, train, val = sweep_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = hyperparameter_sweep(model, train, val, STAGE, lrs=[1e300, 1e-3],
                                    epochs_list=[1])
    by_lr = {r["lr"]: r for r in rows}
    assert by_lr[1e300]["error"].startswith("TinymmtError: stage 3: step 2: non-finite")
    assert by_lr[1e-3]["error"] is None
    assert rows[-1]["lr"] == 1e300  # failures rank last


@pytest.mark.parametrize("lrs, epochs, bad", [([-1.0, 0.0], [1], "lr"),
                                              ([1e-4, -1.0], [1], "lr"),
                                              ([1e-4], [1, 0], "epochs")],
                         ids=["lrs-all-bad", "lrs-second-bad", "epochs-zero"])
def test_invalid_cell_rejected_before_any_cell_trains(monkeypatch, lrs, epochs, bad):
    model, train, val = sweep_setup()
    trained = []
    monkeypatch.setattr(sweep, "run_stage", lambda *args, **kw: trained.append(args))
    with pytest.raises(ConfigError, match=bad):
        hyperparameter_sweep(model, train, val, STAGE, lrs=lrs, epochs_list=epochs)
    assert trained == []


def test_overlong_validation_reference_rejected_before_any_cell_trains(monkeypatch):
    # the prompt fits, but prompt + reference + <eos> exceed c_total: every
    # cell's validation loss would fail the same way
    model, train, val = sweep_setup()
    long = val[0]._replace(response="\u0915" * 400, source_id="long-ref")
    assert model.context_room(model.vocab.encode(long.prompt), has_image=False) >= 0
    trained = []
    monkeypatch.setattr(sweep, "run_stage", lambda *args, **kw: trained.append(args))
    with pytest.raises(DataError, match="sample 'long-ref': assembled sequence length"):
        hyperparameter_sweep(model, train, [val[1], long], STAGE, lrs=[1e-3, 1e-4],
                             epochs_list=[1])
    assert trained == []


def test_empty_grid_rejected():
    model, train, val = sweep_setup()
    with pytest.raises(DataError, match="grid"):
        hyperparameter_sweep(model, train, val, STAGE, lrs=[], epochs_list=[1])


def test_hypotheses_do_not_depend_on_the_reference():
    model, _, val = sweep_setup()
    swapped = [inst._replace(response="x" * (5 + 7 * i))
               for i, inst in enumerate(val)]
    assert generate_hypotheses(model, swapped) == generate_hypotheses(model, val)


def test_long_reference_does_not_overflow_the_budget():
    model, _, val = sweep_setup()
    inst = val[0]._replace(response="क" * 400)
    assert len(generate_hypotheses(model, [inst])) == 1


@pytest.mark.parametrize("cap", [None, 3, 10_000])
def test_budget_is_the_context_left_capped(cap):
    model, _, val = sweep_setup()
    raw = val[0]._replace(response="", image_id=None)  # as --raw-sentences builds
    ((ids, budget),) = decode_instances(model, [raw], max_new_tokens=cap)
    room = model.context_room(model.vocab.encode(raw.prompt), has_image=False)
    assert room > 8
    assert budget == (room if cap is None else min(cap, room))
    assert len(ids) <= budget


def test_overlong_validation_prompt_scores_an_empty_hypothesis():
    model, train, val = sweep_setup()
    long = val[0]._replace(prompt=val[0].prompt * 40, source_id="long")
    assert model.context_room(model.vocab.encode(long.prompt), has_image=False) < 0
    ((ids, budget),) = decode_instances(model, [long])
    assert ids.size == 0 and budget is None
    assert generate_hypotheses(model, [val[0], long, val[1]])[1] == ""

    kwargs = dict(stage=STAGE, lrs=[1e-3], epochs_list=[1])
    (row,) = hyperparameter_sweep(model, train, val + [long], **kwargs)
    (plain,) = hyperparameter_sweep(model, train, val, **kwargs)
    assert row["error"] is None and row["prompt_overflow"] == 1
    assert plain["prompt_overflow"] == 0 and row["val_loss"] == plain["val_loss"]
