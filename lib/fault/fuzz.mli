(** Plan-space instantiation of the coverage-guided fuzzer.

    {!Analysis.Fuzz} supplies the generic novelty loop; this module
    supplies the two halves it is parameterized over, specialized to
    {!Plan}:

    - {!mutate}: one random structure-preserving edit — schedule
      surgery on [Fixed] pick sequences (swap / splice / truncate /
      perturb / extend, all {!Shm.Schedule.well_formed}-preserving),
      fault-list surgery (insert / remove / retime crashes, restarts
      and stalls; window edits on net faults), or a reseed.  Every
      result satisfies {!Plan.validate}.
    - {!execute}: one instrumented chaos run — a coverage probe feeds
      {!Analysis.Fingerprint.cover} states to the engine, the oracle
      verdict marks violations, and the kept form is the plan with its
      {e recorded} schedule pinned as [Fixed], so every corpus entry
      replays byte-deterministically.

    Coverage guides search order only; verdicts come from the same
    oracle suite every chaos run uses (DESIGN.md §11). *)

val mutate : Util.Prng.t -> Plan.t -> Plan.t
(** One random mutation of [plan]; always satisfies {!Plan.validate}
    (falls back to a reseed when the drawn edit cannot be made
    valid).  Deterministic in the generator state. *)

val execute : ?probe:Shm.Probe.t -> ?max_steps:int -> Plan.t -> Plan.t Analysis.Fuzz.exec
(** Run the plan under {!Chaos.run_plan} with a coverage probe
    attached ([state_probe]); for message-passing plans, falls back to
    {!Chaos.run_net_plan} with a single whole-run outcome fingerprint
    (canonical do-multiset + stuck set — net runs expose no
    per-event machine state).  [max_steps] bounds a shared-memory
    run's executor steps and a message-passing run's deliveries
    (default {!Msg.Kk_mp.default_max_deliveries}); a message-passing
    run stopped at that bound ([truncated]) counts as violating, since
    a correct run spends a fraction of the default.  [pinned] is the
    plan with the recorded pick sequence fixed (shm) or the plan
    itself (net).  [probe] is
    composed in front of the coverage probe on every shm execution —
    the seam for an always-on {!Obs.Journal.probe} flight recorder,
    whose drop-oldest ring then retains the tail of the most recent
    (e.g. violating) execution ([amo_run fuzz --flight-out]).
    @raise Invalid_argument on an invalid plan. *)

val harness : ?probe:Shm.Probe.t -> ?max_steps:int -> unit -> Plan.t Analysis.Fuzz.harness
(** {!mutate} + {!execute}: the guided configuration. *)

val blind_harness : ?probe:Shm.Probe.t -> ?max_steps:int -> unit -> Plan.t Analysis.Fuzz.harness
(** The control: identical {!execute} (same probe, same engine, same
    novelty table), but mutation ignores the parent and draws a fresh
    {!Plan.gen} plan with the parent's instance parameters — blind
    Monte-Carlo sampling expressed in the same loop, so guided-vs-blind
    comparisons (bench E17) differ in feedback use only. *)

val default_seeds :
  ?algo:Plan.algo -> seed:int -> n:int -> m:int -> beta:int -> unit -> Plan.t list
(** A small diverse starting corpus for an empty [--corpus] dir: clean
    plans under round-robin / random / bursty schedules, one crash
    plan, one crash-recovery plan.  Deterministic in [seed]. *)

val minimize : Plan.t -> (Plan.t * Chaos.run_result) option
(** Re-run a failing corpus entry and ddmin it with
    {!Chaos.shrink_failure}: [Some (minimal_plan, its_run)] when the
    plan still trips an oracle, [None] when it no longer reproduces or
    is a message-passing plan (the shrinker is shm-only). *)
