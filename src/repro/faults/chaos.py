"""The shared chaos workload: echo traffic under an armed fault plan.

``run_chaos`` adds a client VM on ``nsm-a`` (the fault target) to the
harness's echo host (:func:`~repro.faults.harness.echo_host`, with
``nsm-b`` as the standby), arms a :class:`~repro.faults.plan.FaultPlan`,
and drives paced request/response traffic through the failure.  The
client survives every plan by construction: per-op deadlines (GuestLib
``op_timeout``) bound each blocking call, ECONNRESET from CoreEngine's
quarantine path fails the connection fast, and the loop reconnects
until traffic stops.

The result carries a ``switch_fingerprint``: the harness's
:func:`~repro.faults.harness.timeline_fingerprint` over the host
timeline plus the client counters, per-VM drops, governor and fault
stats.  The same (seed, plan) replays to the same fingerprint, which
``repro chaos --verify`` and the CI chaos-smoke job assert.
"""

from __future__ import annotations

from typing import Optional

from repro.core.nqe import NQE_POOL
from repro.errors import SocketError, TimedOutError, TryAgainError
from repro.faults.harness import (ECHO_PORT, echo_host, host_timeline,
                                  resource_leaks, scrap,
                                  timeline_fingerprint)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, named_plan
from repro.sim.engine import Simulator

#: Request payload size.
REQUEST_BYTES = 256
#: Gap between client requests (keeps the run cheap but steady).
REQUEST_PACING = 0.5e-3
#: The GuestLib counters a chaos timeline covers, per VM.
GUESTLIB_COUNTERS = ("nqes_sent", "nqes_received", "op_timeouts",
                     "op_retries", "admission_waits", "ops_shed",
                     "send_results_shed")


def _chaos_client(sim, api, counters, stop, fault_onset: float):
    """Paced request loop that reconnects through failures."""
    sock = None
    while not stop["flag"]:
        try:
            if sock is None:
                sock = yield from api.socket()
                yield from api.connect(sock, ("nsm-srv", ECHO_PORT))
                counters["connects"] += 1
            payload = bytes(REQUEST_BYTES)
            yield from api.send(sock, payload)
            got = b""
            while len(got) < REQUEST_BYTES:
                data = yield from api.recv(sock, REQUEST_BYTES - len(got))
                if not data:
                    raise SocketError("peer closed mid-reply")
                got += data
            counters["requests_ok"] += 1
            if (fault_onset is not None and sim.now > fault_onset
                    and counters["recovered_at"] is None):
                counters["recovered_at"] = sim.now
            yield sim.timeout(REQUEST_PACING)
        except TryAgainError:
            # Admission control: the op provably never issued, so the
            # socket is intact — back off and retry on it.
            counters["sheds"] += 1
            yield sim.timeout(2e-3)
        except TimedOutError:
            counters["timeouts"] += 1
            sock = yield from scrap(api, sock)
            yield sim.timeout(2e-3)
        except SocketError as error:
            if error.errno_name == "ECONNRESET":
                counters["resets"] += 1
            else:
                counters["other_errors"] += 1
            sock = yield from scrap(api, sock)
            yield sim.timeout(2e-3)
    yield from scrap(api, sock)


def run_chaos(seed: int = 0, plan_name: str = "nsm-crash",
              duration: float = 0.6,
              detection_timeout: float = 10e-3,
              heartbeat_interval: float = 2e-3,
              op_timeout: float = 20e-3,
              plan: Optional[FaultPlan] = None,
              fleet_probe=None,
              fleet_probe_interval: float = 2e-3) -> dict:
    """One seeded chaos run; returns counters, fingerprint, leak report.

    ``plan`` overrides ``plan_name`` when provided (for custom plans).
    The client stops issuing requests at 0.8×duration and the health
    monitor stops at 0.9×duration, so every in-flight element drains
    before the resource-balance checks at the end.

    ``fleet_probe`` (control-plane hook) is called with the live host
    every ``fleet_probe_interval`` simulated seconds, so ``GET /fleet``
    can reflect mid-run state (e.g. a quarantined NSM) while the job is
    still running.  The probe adds scheduler events, so two runs compare
    fingerprints only against runs with the same probe configuration —
    ``--verify`` and the CI jobs always use matching settings.
    """
    pool_outstanding_before = NQE_POOL.outstanding

    sim = Simulator()
    host, _ = echo_host(sim)
    client_vm = host.add_vm("client", vcpus=1, nsm=host.nsms["nsm-a"],
                            op_timeout=op_timeout, max_op_retries=3)
    host.enable_failover(heartbeat_interval=heartbeat_interval,
                         detection_timeout=detection_timeout)

    if plan is None:
        plan = named_plan(plan_name, duration, seed=seed,
                          primary="nsm-a", vm="client")
    injector = FaultInjector(sim, host, plan).arm()
    fault_onset = min((e.at for e in plan.events), default=None)

    counters = {
        "connects": 0,
        "requests_ok": 0,
        "resets": 0,
        "timeouts": 0,
        "sheds": 0,
        "other_errors": 0,
        "recovered_at": None,
    }
    stop = {"flag": False}

    client_vm.spawn(_chaos_client(sim, host.socket_api(client_vm),
                                  counters, stop, fault_onset))

    def stop_traffic():
        stop["flag"] = True

    if fleet_probe is not None:
        fleet_probe(host)
        sim.every(fleet_probe_interval, lambda: fleet_probe(host))

    sim.call_at(0.8 * duration, stop_traffic)
    # Quiesce heartbeats before the end so in-flight probes drain and the
    # pool-balance check below sees a stable state.
    sim.call_at(0.9 * duration,
                host.coreengine.disable_health_monitor)
    sim.run(until=duration)

    ce = host.coreengine
    timeline = host_timeline(sim, host, GUESTLIB_COUNTERS)
    timeline.update({
        "client": dict(counters, recovered_at=(
            round(counters["recovered_at"], 9)
            if counters["recovered_at"] is not None else None)),
        "per_vm_drops": {str(vm_id): drops for vm_id, drops
                         in ce.per_vm_drops().items()},
        "overload": (ce.overload.stats()
                     if ce.overload is not None else None),
        "faults": injector.stats(),
    })

    recovery = None
    if counters["recovered_at"] is not None and fault_onset is not None:
        recovery = counters["recovered_at"] - fault_onset

    return {
        "plan": plan.describe(),
        "seed": seed,
        "duration": duration,
        "detection_timeout": detection_timeout,
        "heartbeat_interval": heartbeat_interval,
        "op_timeout": op_timeout,
        "counters": counters,
        "fault_onset": fault_onset,
        "recovery_sec": recovery,
        "quarantined": dict(ce.quarantined),
        "ce": ce.stats(),
        "faults": injector.stats(),
        "leaks": resource_leaks(host, pool_outstanding_before),
        "switch_fingerprint": timeline_fingerprint(timeline),
    }
