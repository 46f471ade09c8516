(** The execution engine.

    Drives a set of process automata to quiescence under a scheduler
    and a crash adversary, producing a linearized execution trace.
    One iteration of the engine = one transition of the paper's model:
    the adversary may inject [stop] actions, then the scheduler picks
    one live process, which performs exactly one action.

    Running to quiescence (until no process has enabled actions) makes
    every produced execution {e fair} in the paper's sense: it is
    finite and ends in a state where no locally controlled action is
    enabled (§2.1).  The [max_steps] bound exists to turn a
    wait-freedom violation (an infinite execution, impossible by
    Lemma 4.3) into a detectable test failure rather than a hang. *)

type stop_reason =
  | Quiescent  (** every process terminated or crashed *)
  | Max_steps  (** budget exhausted: would-be counterexample to wait-freedom *)

type outcome = {
  steps : int;  (** actions performed (crashes not counted) *)
  reason : stop_reason;
  trace : Trace.t;
  clocks : Util.Vclock.t array;
      (** final per-process vector clocks, index = pid (slot 0 unused)
          — empty unless [run] was called with [~vclocks:true]. *)
}

val run :
  ?max_steps:int ->
  ?trace_level:Trace.level ->
  ?probe:Probe.t ->
  ?vclocks:bool ->
  ?restarter:(step:int -> handles:Automaton.handle array -> int list) ->
  scheduler:Schedule.t ->
  adversary:Adversary.t ->
  Automaton.handle array ->
  outcome
(** [run ~scheduler ~adversary handles] executes to quiescence.

    [handles.(i)] must have pid [i + 1] (checked).  [max_steps]
    defaults to a generous bound derived from the number of processes;
    pass an explicit bound in wait-freedom tests.  [trace_level]
    defaults to [`Outcomes].  [probe] (default {!Probe.null}) observes
    every recorded event regardless of trace level; with the null
    probe no observation cost — not even the [phase ()] lookup — is
    paid.

    [vclocks] (default [false]) maintains a vector clock per process:
    ticked once per action, joined across read-from edges when the
    automaton's events carry write-ids (DESIGN.md §8).  The final
    clocks are returned in [outcome.clocks]; per-event clocks can be
    recomputed from a [`Full] trace with [Obs.Span].

    [restarter] (crash-recovery mode) is consulted once per engine
    iteration, after the adversary's crashes and before the liveness
    check — so a restart can resurrect an execution in which every
    process is crashed.  It must itself revive the processes it
    chooses (the engine has no generic way to rebuild automaton
    state; see {!Core.Kk.restart}) and return the pids it revived; a
    [Restart] event is recorded for each.

    The live set is kept incrementally: the sorted array of live pids
    is rebuilt (with {!live_pids}) only after the adversary crashes a
    live process, after the restarter reports a non-empty list, or
    after a step that leaves the stepped process not alive.  This
    relies on the {!Automaton.handle} contract that [alive] changes
    only through the process's own step, its crash, or a reported
    restart; a restarter that revives a process without returning its
    pid leaves it unscheduled.  The scheduler therefore receives an
    array with the same contents as [live_pids handles] on every pick,
    without the per-step O(m) rebuild.  The array is shared between
    picks, so a scheduler must not mutate it.

    @raise Invalid_argument on malformed handle arrays. *)

val live_pids : Automaton.handle array -> int array
(** Sorted pids of processes that still have enabled actions. *)

val live_footprints : Automaton.handle array -> (int * Footprint.t) array
(** [(pid, footprint)] of each live process's pending action, sorted
    by pid — the raw material of the model checker's independence
    relation (see {!Footprint} and {!Analysis.Explore}). *)
