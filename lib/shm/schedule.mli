(** Schedulers: the asynchrony half of the adversary.

    The model's adversary controls which process takes the next step.
    A scheduler is a (possibly stateful) policy choosing one pid out of
    the currently-live ones.  All stochastic schedulers are driven by a
    {!Util.Prng.t}, so runs are reproducible.

    The wait-freedom and effectiveness theorems quantify over {e all}
    fair executions; the test-suite and benches therefore sample many
    seeds and also exercise deliberately unfair-looking policies
    ([bursty], [biased]) — any execution in which every live process
    eventually keeps stepping until it terminates is fair in the
    paper's sense, because the executor runs to quiescence. *)

type t

val name : t -> string

val choose : t -> alive:int array -> int
(** Pick the pid to step next.  [alive] is non-empty and sorted
    ascending; the result must be one of its elements. *)

val round_robin : unit -> t
(** Cycle through live processes in pid order. *)

val random : Util.Prng.t -> t
(** Uniform choice among live processes at every step. *)

val bursty : Util.Prng.t -> max_burst:int -> t
(** Pick a process uniformly, then let it run for a random burst of
    [1..max_burst] consecutive steps (or until it dies).  Models the
    "one process races ahead" schedules that create collisions. *)

val biased : Util.Prng.t -> favourite:int -> weight:int -> t
(** Choose [favourite] [weight] times more often than each other live
    process (when it is alive).  Models starvation-ish schedules. *)

val well_formed : m:int -> int list -> bool
(** A pick sequence is well-formed for an [m]-process instance when
    every pick names a pid in [1..m].  This is the full {!fixed}
    contract — dead or exhausted picks are handled at choose time —
    so any well-formed sequence is replayable.  Schedule-mutating
    tools (the fault-plan fuzzer, ddmin) check candidates against
    this before running them. *)

val fixed : int list -> t
(** Replay an explicit pid sequence; after the sequence is exhausted,
    fall back to round-robin.  Pids in the sequence that are no longer
    alive are skipped.  Used by unit tests to pin down exact
    interleavings from the paper's proofs. *)

val custom : name:string -> (alive:int array -> int) -> t
(** Wrap an arbitrary (possibly stateful) choice function.  The
    function receives the non-empty sorted live-pid array and must
    return one of its elements; the executor reuses that array across
    picks, so the function must not mutate it.  Used by the fault-injection layer to
    decorate an inner scheduler (e.g. stall windows that hide a pid
    from the choice without killing it). *)

val recording : t -> t * (unit -> int list)
(** [recording s] wraps [s] so that every pick is logged; the second
    component returns the picks made so far, chronological.  Feeding
    that list to {!fixed} replays the interleaving exactly — the
    debugging loop for schedule-dependent failures (record a failing
    stochastic run once, then replay it deterministically). *)
