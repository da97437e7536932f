"""Whole-model pipelined serving: parity, faults, deadlines, streams.

The acceptance criteria mirror ISSUE 9: a compiled multi-layer LLaMA block
(five chained GEMM stages) served end-to-end must be bit-identical to
running ``engine.multiply_planned`` per layer sequentially, including
under a mid-pipeline worker kill (the crashed stage's in-flight request is
requeued and the model request still completes).  Deadlines, cancellation
and backpressure apply to pipelined requests; the report carries per-stage
breakdowns.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    InjectedFaultError,
    RequestCancelledError,
    ServingError,
    ShedError,
)
from repro.serving import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ModelGraph,
    Server,
    compile_workload,
)
from repro.serving.request import EXPIRED, FAILED, SHED
from repro.workloads import LlamaConfig, llama_block_gemms, resnet_stack_gemms

TINY = LlamaConfig("tiny-llama", hidden_size=32, intermediate_size=48,
                   num_attention_heads=4, num_key_value_heads=4, num_layers=2)


def _block_plan(**kwargs):
    workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
    return compile_workload(workload, seed=5, graph="chain", **kwargs)


def _sequential_reference(plan, activation):
    """Per-layer sequential execution via ``multiply_planned`` — the
    non-pipelined ground truth the server must match bit-for-bit."""
    outputs = {}
    for spec in plan.graph.stages:
        source = activation if spec.reads_input else outputs[spec.source]
        layer = plan.layer(spec.layer)
        outputs[spec.layer] = plan.engine.multiply_planned(
            layer.gemm_plan, source
        ).output
    return outputs[plan.graph.stages[-1].layer]


def _activations(plan, count, seed=3, cols=1):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(-32, 32, size=(plan.input_dim, cols), dtype=np.int64)
        for _ in range(count)
    ]


class TestPipelineParity:
    @pytest.mark.parametrize("num_workers,max_batch", [(1, 1), (2, 4), (3, 8)])
    def test_llama_block_threads_bit_identical_to_sequential(
        self, num_workers, max_batch
    ):
        plan = _block_plan()
        assert plan.graph.layers == (
            "qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj"
        )
        activations = _activations(plan, 12, cols=2)
        with Server(plan, num_workers=num_workers, max_batch=max_batch,
                    max_pending=32) as server:
            requests = [server.submit(act) for act in activations]
            outputs = [r.result(timeout=30.0) for r in requests]
        for activation, output in zip(activations, outputs):
            assert np.array_equal(output, _sequential_reference(plan, activation))
        # run_model is the same sequential walk, so it must agree too.
        assert np.array_equal(outputs[0], plan.run_model(activations[0]))

    def test_resnet_stack_serves_end_to_end(self):
        workload = resnet_stack_gemms(weight_bits=4, batch=2)
        plan = compile_workload(workload, seed=8, graph="chain")
        assert plan.input_dim == 64 and plan.output_dim == 1000
        activation = _activations(plan, 1, seed=1, cols=2)[0]
        with Server(plan, num_workers=1, max_batch=2, max_pending=4) as server:
            output = server.submit(activation).result(timeout=30.0)
        assert np.array_equal(output, _sequential_reference(plan, activation))

    def test_submit_many_is_atomic_and_ordered(self):
        plan = _block_plan()
        activations = _activations(plan, 6, seed=21)
        with Server(plan, num_workers=2, max_batch=4,
                    max_pending=8) as server:
            requests = server.submit_many(activations=activations)
            outputs = [r.result(timeout=30.0) for r in requests]
            for activation, output in zip(activations, outputs):
                assert np.array_equal(
                    output, _sequential_reference(plan, activation)
                )
            # An over-bound batch is rejected whole, nothing admitted.
            with pytest.raises(BackpressureError):
                server.submit_many(activations=_activations(plan, 9, seed=2))
        assert server.report().num_rejected == 9


class TestPipelineStream:
    def test_stream_feeds_step_output_to_next_step(self):
        plan = _block_plan()
        assert plan.streamable
        activation = _activations(plan, 1)[0]
        with Server(plan, num_workers=2, max_batch=4, max_pending=8) as server:
            request = server.submit(activation, stream=4)
            steps = request.outputs(timeout=30.0)
        assert len(steps) == 4
        assert request.steps_completed == 4
        token = activation
        for produced in steps:
            token = _sequential_reference(plan, token)
            assert np.array_equal(produced, token)
        # result() is the last decode step.
        assert np.array_equal(request.result(timeout=1.0), steps[-1])


class TestPipelineFaults:
    def _crash_server(self, plan, crash_at):
        faults = FaultInjector(
            plan=FaultPlan(worker_crashes_at=frozenset({crash_at})), seed=7
        )
        return Server(
            plan, num_workers=2, max_batch=2, max_pending=16,
            faults=faults, max_worker_restarts=4,
        )

    @pytest.mark.parametrize("crash_at", [1, 4])
    def test_mid_pipeline_worker_kill_requeues_threads(self, crash_at):
        plan = _block_plan()
        activations = _activations(plan, 6, seed=13)
        with self._crash_server(plan, crash_at) as server:
            requests = [server.submit(act) for act in activations]
            outputs = [r.result(timeout=60.0) for r in requests]
            assert server.faults.stats().worker_crashes == 1
            # The supervisor restarts asynchronously; wait for it while the
            # server is still open (restarts after close() are skipped).
            deadline = time.perf_counter() + 10.0
            while (server.health().num_worker_restarts < 1
                   and time.perf_counter() < deadline):
                time.sleep(0.005)
            assert server.health().num_worker_restarts == 1
        for activation, output in zip(activations, outputs):
            assert np.array_equal(output, _sequential_reference(plan, activation))
        report = server.report()
        assert report.num_worker_restarts >= 1
        assert report.num_model_requests == 6
        assert report.num_model_failed == 0


class TestPipelineDeadlinesAndCancel:
    def test_deadline_expires_mid_pipeline(self):
        plan = _block_plan()
        activation = _activations(plan, 1)[0]
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        with server:
            original = server.queue.next_batch

            def delayed(*args, **kwargs):
                # Once the stage-1 continuation is pending, let the model
                # deadline lapse before the worker can claim it.
                if any(entry[2].layer == "attn_score"
                       for lane in list(server.queue._lanes.values())
                       for entry in list(lane)):
                    time.sleep(0.15)
                return original(*args, **kwargs)

            server.queue.next_batch = delayed
            request = server.submit(activation, deadline_s=0.05)
            with pytest.raises(DeadlineExceededError):
                request.result(timeout=10.0)
        # Stage 0 completed; the request expired before stage 1 ran.
        assert request.steps_completed == 0
        assert server.report().num_expired == 1

    def test_cancel_parks_model_request_at_stage_boundary(self):
        plan = _block_plan()
        acts = _activations(plan, 2, seed=31)
        server = Server(plan, num_workers=1, max_batch=1, max_pending=4)
        gate = threading.Event()
        with server:
            original = server.batcher.execute_once

            def gated(requests):
                assert gate.wait(10.0)
                return original(requests)

            server.batcher.execute_once = gated
            first = server.submit(acts[0])
            second = server.submit(acts[1])
            assert second.cancel() is True
            assert second.done() is True
            gate.set()
            assert np.array_equal(
                first.result(timeout=30.0),
                _sequential_reference(plan, acts[0]),
            )
            with pytest.raises(RequestCancelledError):
                second.result(timeout=1.0)
        assert server.report().num_cancelled >= 1


class TestPipelineTerminalStates:
    """A model request ends in the terminal state of the stage that stopped it."""

    @pytest.mark.parametrize("outcome", ["failed", "shed", "expired"])
    def test_mid_pipeline_stage_outcome_is_the_model_outcome(self, outcome):
        plan = _block_plan()
        activation = _activations(plan, 1, seed=41)[0]
        # Batch hook #2 is stage 1 (attn_score) of the only request in flight.
        stage1_fault = FaultPlan(engine_faults_at=frozenset({2}))
        options = {"retry_policy": None, "admission_control": False}
        deadline_s = None
        if outcome == "failed":
            options.update(
                degraded_fallback=False, faults=FaultInjector(plan=stage1_fault)
            )
            error, state = InjectedFaultError, FAILED
        elif outcome == "shed":
            # One fast-path failure trips the breaker open, so the failing
            # stage is shed instead of taking the degraded oracle.
            options.update(
                degraded_breaker=CircuitBreaker(failure_threshold=1, cooldown_s=60.0),
                faults=FaultInjector(plan=stage1_fault),
            )
            error, state = ShedError, SHED
        else:
            # Stage 0 runs past the model deadline; stage 1 expires queued.
            options.update(
                faults=FaultInjector(plan=FaultPlan(latency_at={1: 0.3}))
            )
            deadline_s = 0.1
            error, state = DeadlineExceededError, EXPIRED
        with Server(plan, num_workers=1, max_batch=1, max_pending=4,
                    **options) as server:
            request = server.submit(activation, deadline_s=deadline_s)
            with pytest.raises(error):
                request.result(timeout=10.0)
        assert request.done()
        assert request.state == state
        assert request.steps_completed == 0
        report = server.report()
        assert report.requests_per_layer == {"qkv_proj": 1}
        assert report.num_model_requests == 0
        assert report.num_model_failed == 1
        assert (report.num_failed, report.num_shed, report.num_expired) == (
            int(state == FAILED), int(state == SHED), int(state == EXPIRED)
        )


class TestPipelineReport:
    def test_per_stage_breakdown(self):
        plan = _block_plan()
        activations = _activations(plan, 10, seed=23)
        with Server(plan, num_workers=2, max_batch=4,
                    max_pending=16) as server:
            requests = [server.submit(act) for act in activations]
            for request in requests:
                request.result(timeout=30.0)
        report = server.report()
        assert report.pipeline_depth == 5
        assert report.num_model_requests == 10
        assert report.num_model_failed == 0
        assert report.model_latency_mean_s > 0.0
        assert report.model_latency_p95_s >= report.model_latency_p50_s
        assert [s.layer for s in report.stages] == list(plan.graph.layers)
        for stage in report.stages:
            assert stage.requests == 10
            assert stage.batches >= 1
            assert stage.compute_s > 0.0
            assert 0.0 <= stage.occupancy
        as_dict = report.as_dict()
        pipeline = as_dict["pipeline"]
        assert pipeline["depth"] == 5
        assert len(pipeline["stages"]) == 5
        assert pipeline["num_model_requests"] == 10
        rendered = report.render()
        assert "stage[0] qkv_proj" in rendered
        assert "pipeline depth" in rendered

    def test_model_latency_spans_all_stages(self):
        plan = _block_plan()
        activation = _activations(plan, 1)[0]
        with Server(plan, num_workers=1, max_batch=1, max_pending=4) as server:
            request = server.submit(activation)
            request.result(timeout=30.0)
        assert request.latency_s is not None
        assert request.latency_s > 0.0
        assert request.pipeline_depth == 5


class TestPipelineGraphRequirements:
    def test_multi_layer_plan_without_graph_rejects_model_submit(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        plan = compile_workload(workload, seed=5)  # no graph
        activation = np.ones((32, 1), dtype=np.int64)
        with Server(plan, num_workers=1, max_batch=2) as server:
            with pytest.raises(ServingError, match="graph"):
                server.submit(activation)

    def test_single_layer_plan_serves_implicit_graph(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        plan = compile_workload(workload, seed=5, layer_names=["qkv_proj"])
        activation = np.arange(32, dtype=np.int64).reshape(32, 1)
        with Server(plan, num_workers=1, max_batch=2) as server:
            output = server.submit(activation).result(timeout=10.0)
        assert np.array_equal(output, plan.layer("qkv_proj").weight @ activation)
        report = server.report()
        assert report.pipeline_depth == 1
        assert report.stages[0].layer == "qkv_proj"

    def test_explicit_graph_object_at_compile_time(self):
        workload = llama_block_gemms(TINY.name, config=TINY, weight_bits=4)
        graph = ModelGraph.chain(
            ["qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj"]
        )
        plan = compile_workload(workload, seed=5, graph=graph)
        assert plan.graph == graph
        assert plan.streamable
